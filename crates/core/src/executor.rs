//! A small deterministic executor for embarrassingly parallel fan-out,
//! sized by one process-wide core budget.
//!
//! The paper's lottery studies execute tens of thousands of independent
//! `(hyperparameter assignment, seed)` runs; this module spreads such run
//! units across threads while keeping the *results* in exactly the
//! input order, so a parallel sweep is bit-identical to a serial one.
//!
//! Fan-outs nest: a [`Sweep`](crate::sweep::Sweep) worker runs a search
//! whose [`EnvPool`](crate::pool::EnvPool) fans a batch out, and a proxy
//! refit inside that search fans its trees out. Each layer asks for its
//! own width, so the layers share one `CoreBudget`: a count of claimed
//! cores, as wide as [`Executor::available_parallelism`]. A fan-out runs
//! items on its calling thread and spawns a helper only for each core it
//! can claim right now, so an inner fan-out spreads onto idle cores only
//! and otherwise runs inline. A running search holds a core for its
//! thread (see [`SearchLoop`](crate::search::SearchLoop)), and so does
//! every helper, so concurrent searches count against the budget too.
//!
//! The design is deliberately dependency-free and has no `unsafe`: the
//! caller and its [`std::thread::scope`] helpers pull the next unclaimed
//! *chunk* of indices off a shared atomic cursor (self-scheduling:
//! chunks amortize coordination on fine-grained items while staying
//! small enough to load-balance uneven ones), stash `(index, result)`
//! pairs locally, and the results are stitched back into input order
//! once every helper has joined.
//!
//! Work items are *panic-isolated*: every invocation runs under
//! [`std::panic::catch_unwind`], so a panicking item surfaces as an
//! error result in its own slot ([`Executor::map_with_catch`]) while
//! the other threads keep draining the cursor. The infallible
//! [`Executor::map`]/[`Executor::map_with`] wrappers re-raise the first
//! caught panic after the full fan-out completes.
//!
//! ```
//! use archgym_core::executor::Executor;
//!
//! let squares = Executor::new(4).map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use crate::telemetry::{Phase, Recorder};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Render a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

thread_local! {
    /// The [`CoreBudget`] this thread holds a core of, if any. A thread
    /// holds at most one core, of one budget, at a time.
    static HELD: Cell<Option<&'static CoreBudget>> = const { Cell::new(None) };
}

/// A count of claimed cores, shared by every fan-out in the process
/// ([`CoreBudget::global`]).
///
/// A fan-out draws from the budget its thread holds a core of, and
/// otherwise from the global one ([`CoreBudget::current`]), so helpers
/// and everything nested beneath them stay on their caller's budget.
/// Tests hold a core of a private budget to fan out deterministically.
///
/// A thread that runs work holds a core ([`CoreBudget::hold`]); that
/// always succeeds, because a running thread occupies a core whether or
/// not one was free, so the count may exceed the capacity. A fan-out
/// spawns a helper only for a core it can claim without exceeding the
/// capacity ([`CoreBudget::try_claim`]). Claims are released when their
/// [`CoreClaim`] drops, on unwind too.
#[derive(Debug)]
pub(crate) struct CoreBudget {
    capacity: usize,
    claimed: AtomicUsize,
}

impl CoreBudget {
    /// A budget of `capacity` cores, none claimed.
    pub(crate) const fn new(capacity: usize) -> Self {
        CoreBudget {
            capacity,
            claimed: AtomicUsize::new(0),
        }
    }

    /// The process-wide budget, [`Executor::available_parallelism`]
    /// cores wide.
    pub(crate) fn global() -> &'static CoreBudget {
        static GLOBAL: OnceLock<CoreBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| CoreBudget::new(Executor::available_parallelism()))
    }

    /// The budget the calling thread holds a core of, else the global
    /// one.
    fn current() -> &'static CoreBudget {
        HELD.get().unwrap_or_else(CoreBudget::global)
    }

    /// Hold a core for the calling thread until the claim drops. A
    /// thread that already holds one gets a claim that does nothing.
    pub(crate) fn hold(&'static self) -> CoreClaim {
        if HELD.get().is_some() {
            return CoreClaim {
                budget: None,
                marks_thread: false,
            };
        }
        self.claimed.fetch_add(1, Ordering::Relaxed);
        HELD.set(Some(self));
        CoreClaim {
            budget: Some(self),
            marks_thread: true,
        }
    }

    /// Claim an idle core for a helper thread, if one is idle now. The
    /// helper takes the claim over with [`CoreClaim::enter`].
    fn try_claim(&'static self) -> Option<CoreClaim> {
        self.claimed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .ok()
            .map(|_| CoreClaim {
                budget: Some(self),
                marks_thread: false,
            })
    }
}

/// One core claimed from a [`CoreBudget`], released on drop.
#[must_use = "the core is released as soon as the claim drops"]
#[derive(Debug)]
pub(crate) struct CoreClaim {
    /// `None` for the no-op claim of a thread that already held a core.
    budget: Option<&'static CoreBudget>,
    /// Whether this claim set [`HELD`] on the thread that holds it, and
    /// so must clear it on drop.
    marks_thread: bool,
}

impl CoreClaim {
    /// Take the claim over on the current thread, so that fan-outs it
    /// starts count it as already holding a core, of the same budget.
    fn enter(mut self) -> Self {
        HELD.set(self.budget);
        self.marks_thread = true;
        self
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        if let Some(budget) = self.budget {
            budget.claimed.fetch_sub(1, Ordering::Relaxed);
            if self.marks_thread {
                HELD.set(None);
            }
        }
    }
}

/// How many indices a thread claims per cursor bump: roughly four
/// claims per thread, so coordination is amortized on fine-grained
/// items without starving stragglers on uneven ones.
fn chunk(items: usize, workers: usize) -> usize {
    (items / (workers * 4)).max(1)
}

/// Apply `f` to every item under [`catch_unwind`], returning the
/// outcomes in input order. The calling thread holds a core of `budget`
/// and drains items with `states[0]`; it spawns one helper per further
/// state for as long as `budget` has an idle core to claim, up to
/// `jobs` threads and `items.len()` in all.
fn fan_out<W, T, R, F>(
    budget: &'static CoreBudget,
    jobs: usize,
    states: &mut [W],
    items: &[T],
    f: F,
) -> Vec<std::result::Result<R, String>>
where
    W: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut W, &T) -> R + Sync,
{
    let run_one = |state: &mut W, item: &T| -> std::result::Result<R, String> {
        catch_unwind(AssertUnwindSafe(|| f(state, item))).map_err(panic_message)
    };
    let _caller = budget.hold();
    let width = jobs.min(states.len()).min(items.len());
    let (first, rest) = states
        .split_first_mut()
        .expect("fan-out needs at least one state");
    let helpers: Vec<CoreClaim> = std::iter::from_fn(|| budget.try_claim())
        .take(width.saturating_sub(1))
        .collect();
    if helpers.is_empty() {
        return items.iter().map(|item| run_one(first, item)).collect();
    }

    let workers = helpers.len() + 1;
    let chunk = chunk(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    // Pre-size each thread's scratch for its fair share (plus one chunk
    // of load-balancing slack) so result staging never reallocates
    // mid-drain.
    let scratch = items.len() / workers + chunk;
    let drain = |state: &mut W| {
        let mut local: Vec<(usize, std::result::Result<R, String>)> = Vec::with_capacity(scratch);
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            for (index, item) in items.iter().enumerate().take(end).skip(start) {
                local.push((index, run_one(state, item)));
            }
        }
        local
    };
    let mut tagged = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(helpers)
            .map(|(state, claim)| {
                let drain = &drain;
                scope.spawn(move || {
                    let _claim = claim.enter();
                    drain(state)
                })
            })
            .collect();
        let mut tagged = drain(first);
        for handle in handles {
            tagged.extend(handle.join().expect("executor worker panicked"));
        }
        tagged
    });

    // Stitch results back into input order. Every index appears
    // exactly once, so a by-index sort restores determinism.
    tagged.sort_unstable_by_key(|(index, _)| *index);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// Fans independent work items out over at most `jobs` threads,
/// returning results in input order.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
    recorder: Recorder,
}

/// Equality is configuration equality (worker count); the telemetry
/// handle is observability plumbing, not configuration.
impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        self.jobs == other.jobs
    }
}

impl Eq for Executor {}

impl Executor {
    /// An executor fanning out over at most `jobs` threads, the caller
    /// included, each on a core claimed from the process-wide budget.
    /// `jobs == 0` selects [`Executor::available_parallelism`];
    /// `jobs == 1` runs serially on the caller's thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            Self::available_parallelism()
        } else {
            jobs
        };
        Executor {
            jobs,
            recorder: Recorder::default(),
        }
    }

    /// Install a telemetry recorder: every fan-out
    /// ([`Executor::map_with_catch`] and the wrappers built on it)
    /// records one [`Phase::ExecutorBatch`] span covering helper
    /// scheduling plus the work itself.
    pub fn set_telemetry(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// The number of hardware threads available, falling back to 1 when
    /// the platform cannot say.
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The resolved width: the most threads one fan-out uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, in parallel on the caller and on
    /// helpers for idle cores, and return the results **in input
    /// order**.
    ///
    /// `f` must be safe to call concurrently from several threads
    /// (`Sync`); each invocation receives a shared reference to its item.
    /// Panics in `f` propagate to the caller once every item has run.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let mut units = vec![(); self.jobs];
        self.map_with_catch(&mut units, items, |_, item| f(item))
            .into_iter()
            .map(|result| result.unwrap_or_else(|msg| panic!("executor worker panicked: {msg}")))
            .collect()
    }

    /// Like [`Executor::map`], but each thread owns one mutable state
    /// from `states` (at most one thread per state, never shared) — the
    /// fan-out primitive behind [`EnvPool`](crate::pool::EnvPool)'s
    /// environment replicas. Results come back **in input order**.
    ///
    /// The caller runs items against `states[0]`; helpers take
    /// `states[1..]`, one for each idle core the budget grants, up to
    /// `min(jobs, states.len(), items.len())` threads in all. With no
    /// idle core, everything runs serially on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while `items` is not, and propagates
    /// item panics.
    pub fn map_with<W, T, R, F>(&self, states: &mut [W], items: &[T], f: F) -> Vec<R>
    where
        W: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut W, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        assert!(!states.is_empty(), "map_with needs at least one state");
        self.map_with_catch(states, items, f)
            .into_iter()
            .map(|result| result.unwrap_or_else(|msg| panic!("executor worker panicked: {msg}")))
            .collect()
    }

    /// The panic-isolating primitive [`Executor::map`] and
    /// [`Executor::map_with`] are built on: apply `f` to every item as
    /// `map_with` does, but run each invocation under
    /// [`catch_unwind`], so a panicking work item becomes
    /// `Err(panic message)` in its slot while **every other item —
    /// including later items drained by the same thread — still runs**.
    /// Results come back in input order.
    ///
    /// This is what keeps one exploding design-point evaluation from
    /// sinking a whole parallel batch: the search runtime maps the `Err`
    /// to [`ArchGymError::EvalFailed`](crate::error::ArchGymError) and
    /// lets the retry/degrade machinery handle it like any other fault.
    ///
    /// A thread's state is handed back to `f` for subsequent items
    /// even after a catch; states must therefore tolerate an unwound
    /// invocation (environment replicas do — `reset` restores them).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while `items` is not.
    pub fn map_with_catch<W, T, R, F>(
        &self,
        states: &mut [W],
        items: &[T],
        f: F,
    ) -> Vec<std::result::Result<R, String>>
    where
        W: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut W, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        assert!(
            !states.is_empty(),
            "map_with_catch needs at least one state"
        );
        let _span = self.recorder.span(Phase::ExecutorBatch);
        fan_out(CoreBudget::current(), self.jobs, states, items, f)
    }
}

impl Default for Executor {
    /// An executor using every available hardware thread.
    fn default() -> Self {
        Executor::new(0)
    }
}

/// Helpers for tests that must see a fan-out run on more than one
/// thread, whatever else the process is running.
#[cfg(test)]
pub(crate) mod testing {
    use super::CoreBudget;
    use crate::env::{Environment, Observation, StepResult};
    use crate::space::{Action, ParamSpace};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// A budget of `capacity` cores, none claimed, apart from the
    /// global one. A test thread that holds one of its cores
    /// ([`CoreBudget::hold`]) fans out onto its idle cores, and so do
    /// the helpers beneath it.
    pub(crate) fn private_budget(capacity: usize) -> &'static CoreBudget {
        Box::leak(Box::new(CoreBudget::new(capacity)))
    }

    /// The number of cores of `budget` claimed now.
    pub(crate) fn claimed(budget: &CoreBudget) -> usize {
        budget.claimed.load(Ordering::SeqCst)
    }

    /// Record the calling thread in `seen`, then wait until `n` distinct
    /// threads are recorded, failing after ten seconds instead of
    /// hanging when fewer threads run. The failure poisons `seen`, so
    /// every later meet on it fails at once.
    pub(crate) fn meet(seen: &Mutex<HashSet<ThreadId>>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut arrived = seen.lock().expect("an earlier meet timed out");
        arrived.insert(std::thread::current().id());
        while arrived.len() < n {
            assert!(Instant::now() < deadline, "fewer than {n} threads arrived");
            drop(arrived);
            std::thread::yield_now();
            arrived = seen.lock().expect("an earlier meet timed out");
        }
    }

    /// An environment whose steps [`meet`] on two threads before they
    /// simulate: a run over it, and over its clones, finishes only if
    /// its steps really ran on two threads. Results are the wrapped
    /// environment's.
    #[derive(Debug, Clone)]
    pub(crate) struct TwoThreadEnv<E> {
        inner: E,
        seen: Arc<Mutex<HashSet<ThreadId>>>,
    }

    impl<E> TwoThreadEnv<E> {
        pub(crate) fn new(inner: E) -> Self {
            TwoThreadEnv {
                inner,
                seen: Arc::default(),
            }
        }
    }

    impl<E: Environment> Environment for TwoThreadEnv<E> {
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
            meet(&self.seen, 2);
            self.inner.step(action)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{claimed, meet, private_budget};
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let executor = Executor::new(0);
        assert_eq!(executor.jobs(), Executor::available_parallelism());
        assert!(executor.jobs() >= 1);
    }

    #[test]
    fn map_preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 4, 16] {
            let got = Executor::new(jobs).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_item_inputs() {
        let executor = Executor::new(8);
        assert_eq!(executor.map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(executor.map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_visits_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let results = Executor::new(4).map(&items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results, items);
    }

    #[test]
    fn map_works_with_fallible_results() {
        let items = [1i64, -2, 3];
        let results =
            Executor::new(2).map(&items, |&x| if x < 0 { Err("negative") } else { Ok(x * 2) });
        assert_eq!(results, vec![Ok(2), Err("negative"), Ok(6)]);
    }

    #[test]
    fn chunk_sizes_amortize_without_starving() {
        assert_eq!(chunk(8, 8), 1); // small sweeps: per-item
        assert_eq!(chunk(1000, 4), 62); // big inputs: coarse
        assert_eq!(chunk(1, 16), 1);
    }

    #[test]
    fn map_with_preserves_order_and_confines_states_to_workers() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for jobs in [1, 2, 4, 16] {
            // Each worker state counts how many items it handled; the
            // counts must sum to the item count (every item exactly once).
            let mut states = vec![0u64; 4];
            let got = Executor::new(jobs).map_with(&mut states, &items, |count, &x| {
                *count += 1;
                x * 7
            });
            assert_eq!(got, expected, "jobs={jobs}");
            assert_eq!(states.iter().sum::<u64>(), 100, "jobs={jobs}");
        }
    }

    #[test]
    fn map_with_handles_empty_input_without_states() {
        let got = Executor::new(4).map_with(&mut [] as &mut [u8], &[] as &[u64], |_, &x| x);
        assert_eq!(got, Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn map_with_rejects_missing_states() {
        let _ = Executor::new(4).map_with(&mut [] as &mut [u8], &[1u64], |_, &x| x);
    }

    #[test]
    #[should_panic(expected = "executor worker panicked")]
    fn worker_panics_propagate() {
        let items = [1u64, 2, 3, 4];
        let _ = Executor::new(2).map(&items, |&x| {
            assert!(x < 3, "boom");
            x
        });
    }

    #[test]
    fn catch_isolates_a_panicking_item_from_the_rest() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 4] {
            let mut states = vec![(); 4];
            let results = Executor::new(jobs).map_with_catch(&mut states, &items, |_, &x| {
                if x == 13 {
                    panic!("boom on {x}");
                }
                x * 2
            });
            assert_eq!(results.len(), 100, "jobs={jobs}");
            for (i, result) in results.iter().enumerate() {
                if i == 13 {
                    let msg = result.as_ref().unwrap_err();
                    assert!(msg.contains("boom on 13"), "jobs={jobs}: {msg}");
                } else {
                    assert_eq!(result.as_ref().unwrap(), &(i as u64 * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn workers_keep_draining_after_a_caught_panic() {
        // Panic on several items spread across chunks; every remaining
        // item must still be visited exactly once (no worker dies, no
        // chunk is abandoned).
        let items: Vec<u64> = (0..64).collect();
        let visited = AtomicU64::new(0);
        let mut states = vec![0u64; 4];
        let results = Executor::new(4).map_with_catch(&mut states, &items, |count, &x| {
            visited.fetch_add(1, Ordering::Relaxed);
            *count += 1;
            assert!(x % 10 != 7, "unlucky item");
            x
        });
        assert_eq!(visited.load(Ordering::Relaxed), 64);
        assert_eq!(states.iter().sum::<u64>(), 64);
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 6); // 7, 17, 27, 37, 47, 57
        assert!(results[7].as_ref().unwrap_err().contains("unlucky item"));
    }

    #[test]
    fn a_fan_out_nested_in_one_holding_every_core_runs_on_its_caller() {
        let budget = private_budget(2);
        let (arrived, done) = (Mutex::default(), Mutex::default());
        let mut states = vec![(); 2];
        let outer = fan_out(budget, 2, &mut states, &[0u8, 1], |_, _| {
            // Both items run at once: the caller and one helper hold
            // both cores.
            meet(&arrived, 2);
            assert_eq!(claimed(budget), 2);
            let me = std::thread::current().id();
            let mut inner_states = vec![(); 4];
            let inner = fan_out(budget, 4, &mut inner_states, &[0u8; 16], |_, _| {
                std::thread::current().id()
            });
            // Neither thread releases its core before both inner
            // fan-outs are done.
            meet(&done, 2);
            inner.into_iter().all(|id| id == Ok(me))
        });
        assert_eq!(outer, vec![Ok(true), Ok(true)]);
        assert_eq!(claimed(budget), 0);
    }

    #[test]
    fn a_width_two_fan_out_on_a_free_budget_uses_the_caller_and_one_helper() {
        let budget = private_budget(4);
        let arrived = Mutex::default();
        let items: Vec<usize> = (0..8).collect();
        let mut states = vec![(); 4];
        let ids = fan_out(budget, 2, &mut states, &items, |_, &i| {
            if i < 2 {
                meet(&arrived, 2);
            }
            std::thread::current().id()
        });
        let ids: HashSet<_> = ids.into_iter().map(Result::unwrap).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&std::thread::current().id()));
        assert_eq!(claimed(budget), 0);
    }

    #[test]
    fn an_executor_fans_out_onto_the_budget_its_thread_holds_a_core_of() {
        let budget = private_budget(2);
        let core = budget.hold();
        let seen = Mutex::default();
        let items: Vec<u64> = (0..16).collect();
        let got = Executor::new(2).map(&items, |&x| {
            meet(&seen, 2);
            x * 2
        });
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(claimed(budget), 1);
        drop(core);
        assert_eq!(claimed(budget), 0);
    }

    #[test]
    fn claims_return_to_their_start_after_items_panic() {
        let budget = private_budget(2);
        let items: Vec<u64> = (0..64).collect();
        let mut states = vec![(); 2];
        let results = fan_out(budget, 2, &mut states, &items, |_, &x| {
            assert!(x % 3 != 0, "boom");
            x
        });
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 22);
        assert_eq!(claimed(budget), 0);
        // A held core is released when its holder unwinds.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _core = budget.hold();
            assert_eq!(claimed(budget), 1);
            panic!("boom");
        }));
        assert!(unwound.is_err());
        assert_eq!(claimed(budget), 0);
        assert!(HELD.get().is_none());
    }

    #[test]
    fn threads_running_items_never_exceed_the_capacity() {
        let budget = private_budget(3);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let outer: Vec<usize> = (0..8).collect();
        let mut outer_states = vec![(); 8];
        fan_out(budget, 8, &mut outer_states, &outer, |_, _| {
            let mut states = vec![(); 8];
            fan_out(budget, 8, &mut states, &[0u8; 8], |_, _| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=3).contains(&peak), "peak {peak}");
        assert_eq!(claimed(budget), 0);
    }
}
