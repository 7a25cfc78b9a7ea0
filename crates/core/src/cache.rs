//! Memoized design-point evaluation — [`EvalCache`] and [`CachedEnv`].
//!
//! Search agents revisit configurations constantly: a GA's crossover
//! re-produces elite genomes, ACO's pheromone trails concentrate on a
//! few paths, SA re-proposes neighbors near its current point. ArchGym
//! environments are *deterministic* one-shot cost models — the same
//! action always yields the same [`StepResult`] — so a revisit can be
//! answered from a hash map instead of a full simulation.
//!
//! [`EvalCache`] is a sharded, lock-striped map from an action encoding
//! (the per-dimension index vector) to the full step result (cost-vector
//! observation, reward, feasibility and diagnostic stats). Sharding
//! keeps lock contention negligible when a parallel
//! [`Executor`](crate::executor::Executor) sweep shares one cache across
//! workers. [`CachedEnv`] wraps any [`Environment`] to consult the cache
//! on every step; built without a cache it is a zero-cost passthrough,
//! which lets sweep infrastructure keep a single code path.
//!
//! Keys are *canonical* actions: [`CachedEnv`] looks up
//! [`Environment::canonical`] of each action, so twins that differ only
//! in dimensions the cost model ignores there share one entry (on DRAM,
//! for example, `RefreshMaxPostponed` under `NoRefresh`). The stored
//! result is the one the first twin's simulation returned, which is bit
//! for bit what every twin's would be. Entries therefore count distinct
//! simulated designs, not distinct actions. The inner environment still
//! steps the raw action on a miss.
//!
//! A miss may also be answered by a *twin set*: the designs that an
//! earlier simulation's own run proved to step bit-identically to it
//! ([`Environment::try_step_with_twins`], a [`TwinSet`]). On a miss,
//! [`CachedEnv`] asks the inner environment for the set along with the
//! result, stores the result once under its key, and registers the set
//! against that same packed result (shared, not copied). When a later
//! lookup finds no exact entry, it probes the twin index with the raw
//! action: sets are filed by their action's indices outside the free
//! dimensions, so a probe scans only the sets that agree with it there,
//! and a member found is a hit, counted in [`CacheStats::twin_hits`],
//! that inserts nothing. So `entries == misses` still, and each entry is
//! one simulation. Single-flight covers one key, not one class: two
//! concurrent misses inside one class may both simulate, and their
//! results are identical. On DRAM the witness rules subsume
//! [`Environment::canonical`]'s three static ones (every set holds its
//! action's canonical twin). Plain `step` registers no set, and uncached
//! callers never compute one. `Box`, `&mut`,
//! [`CountingEnv`](crate::env::CountingEnv) and [`CachedEnv`] forward
//! the method; [`FaultyEnv`](crate::fault::FaultyEnv) forwards it on
//! clean attempts only, and a learned surrogate keeps the default.
//!
//! Misses are *single-flight*: [`EvalCache::lookup`] marks a missed key
//! as in flight, and a concurrent lookup of that key waits for the first
//! simulation and counts as a hit. So a parallel sweep simulates each
//! design point once and reports the same [`CacheStats`] as a serial
//! one. A simulation that fails, yields an uncacheable result or unwinds
//! clears the mark; one waiter then simulates the key, and the others
//! wait for it in turn.
//!
//! A lookup hashes its key once, with a keyed SipHash seeded per cache
//! (as `HashMap` seeds its own), since designs may come from outside a
//! run, as in a warm start. That one hash picks the shard by its middle
//! bits and files the key in the shard's table, whose hasher passes it
//! through; the [`Fill`] carries it to settle, so a miss hashes its key
//! once too. The table maps each stored hash to the newest record filed
//! under it, and each record links to the next one with the same hash,
//! so a collision costs an index comparison, never a wrong result.
//!
//! Each shard keeps its entries in a few flat vectors, its *arena*,
//! rather than in blocks of their own:
//!
//! * one fixed-size record per stored entry (24 B): where its key and
//!   its values start, the next record with the same hash, the key's
//!   length and the result's flags;
//! * the key indices, one `u32` each, or two (low and high half) for
//!   every index of a key that has an index past `u32::MAX`;
//! * the values: each result's reward, then its observation, then its
//!   `info` values;
//! * each distinct list of `info` names once. Simulators name their
//!   values with literals, so a stored name is the literal itself, with
//!   nothing to intern or allocate; a result with a name made at run
//!   time keeps its whole [`Info`](crate::env::Info) in a side list
//!   instead.
//!
//! Keys in flight sit in a small side list (one per simulating thread),
//! whose key buffers are reused. So storing a miss allocates nothing
//! once the vectors have grown, and dropping a cache frees a number of
//! blocks that does not grow with its entries. A hit rebuilds the
//! [`StepResult`] with the same bits and names as the simulator's, in
//! two allocations (the observation and the info list). Counted with a
//! tracking allocator over 100,000 stored DRAM-shaped results (10-index
//! keys, four observation values, three info values), an entry takes
//! 190 B of heap requested and 192 B once the allocator rounds each
//! block, table and spare capacity included, against 277 B and 286 B by
//! the same count with a boxed key and a boxed observation and info list
//! per entry (a `Vec` key and a whole `StepResult` in a separate done
//! map took 627 B). A shard's records, the table included, are append-only: an
//! entry is never replaced, since every store of a key stores the same
//! result. A result too large for a record (an observation or key of
//! over 65,535 values, or a shard past `u32` offsets) is simulated
//! again on every visit instead.
//!
//! Each shard also keeps its share of the hit, miss and insert
//! counters, under its lock; [`EvalCache::stats`] sums them and the
//! record counts, one lock per shard. A lookup that waits for an
//! in-flight key counts itself as waiting on the shard, and a settle
//! signals the shard's condition variable only if some lookup waits.
//! A [`CachedEnv`] miss copies its key once, into the arena: the
//! [`Fill`] borrows the looked-up action to settle it.
//!
//! The twin sets live in an arena of their own, with a copy of each
//! registered result, so a lookup that holds its shard's lock never
//! needs another shard's. The only lock order is shard, then twins.
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

use crate::env::{Environment, Info, Observation, StepResult, TwinSet};
use crate::space::{Action, ParamSpace};
use crate::telemetry::{Counter, Phase, Recorder};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// insert. A hit answered by a stored twin set inserts nothing, so with
/// no failed simulation `entries == misses` as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Of the hits, those answered by a stored twin set rather than by
    /// the looked-up key's own entry (at most `hits`).
    pub twin_hits: u64,
    /// Lookups that fell through to a simulation.
    pub misses: u64,
    /// Results written into the cache.
    pub inserts: u64,
    /// Distinct canonical design points currently stored: one per
    /// simulated behaviour, however many twin actions it answered.
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

/// The end of a collision chain: no further record.
const NONE: u32 = u32::MAX;

/// [`Stored::flags`]: the result's `done` flag.
const DONE: u8 = 1;
/// [`Stored::flags`]: the result's `feasible` flag.
const FEASIBLE: u8 = 2;
/// [`Stored::flags`]: the info names are owned, kept whole in
/// [`Results::owned`] rather than as a static name list and values.
const OWNED_INFO: u8 = 4;

/// A stored [`StepResult`]: where its values start in its [`Results`]
/// arena, its info names, its observation's length and its flags.
#[derive(Debug, Clone, Copy)]
struct Stored {
    /// The reward, the observation and (unless owned) the info values
    /// start here in [`Results::values`].
    values: u32,
    /// A list in [`Results::name_lists`], or with [`OWNED_INFO`] an
    /// [`Info`] in [`Results::owned`].
    names: u32,
    observation_len: u16,
    flags: u8,
}

/// The stored results of one shard (or of the twin index), end to end.
#[derive(Debug, Default)]
struct Results {
    /// Each result's reward, then its observation, then its info values.
    values: Vec<f64>,
    /// Each distinct list of static info names stored, in name order.
    name_lists: Vec<Box<[&'static str]>>,
    /// The info of each result with a name made at run time.
    owned: Vec<Info>,
}

impl Results {
    /// Append `result`; `None` if it does not fit a [`Stored`].
    fn store(&mut self, result: &StepResult) -> Option<Stored> {
        let observation = result.observation.as_slice();
        let observation_len = u16::try_from(observation.len()).ok()?;
        let values = u32::try_from(self.values.len()).ok()?;
        let entries = result.info.entries();
        let statics = entries
            .iter()
            .all(|(name, _)| matches!(name, Cow::Borrowed(_)));
        let mut flags = 0;
        if result.done {
            flags |= DONE;
        }
        if result.feasible {
            flags |= FEASIBLE;
        }
        let names = if statics {
            self.name_list(entries)?
        } else {
            flags |= OWNED_INFO;
            self.owned.push(result.info.clone());
            u32::try_from(self.owned.len() - 1).ok()?
        };
        self.values.push(result.reward);
        self.values.extend_from_slice(observation);
        if statics {
            self.values.extend(entries.iter().map(|&(_, value)| value));
        }
        Some(Stored {
            values,
            names,
            observation_len,
            flags,
        })
    }

    /// The position of the name list of `entries`, all static, added if
    /// new. Names match by address, so a stored name is the very literal
    /// the simulator used.
    fn name_list(&mut self, entries: &[(Cow<'static, str>, f64)]) -> Option<u32> {
        let same = |list: &[&'static str]| {
            list.len() == entries.len()
                && list.iter().zip(entries).all(|(&stored, (name, _))| {
                    matches!(name, Cow::Borrowed(name) if std::ptr::eq(stored, *name))
                })
        };
        let at = match self.name_lists.iter().position(|list| same(list)) {
            Some(at) => at,
            None => {
                let list = entries.iter().map(|(name, _)| match name {
                    Cow::Borrowed(name) => *name,
                    Cow::Owned(_) => unreachable!("only static names are listed"),
                });
                self.name_lists.push(list.collect());
                self.name_lists.len() - 1
            }
        };
        u32::try_from(at).ok()
    }

    /// The result as the simulator returned it: the same values, bits
    /// and names.
    fn load(&self, stored: &Stored) -> StepResult {
        let start = stored.values as usize;
        let end = start + 1 + usize::from(stored.observation_len);
        let info = if stored.flags & OWNED_INFO != 0 {
            self.owned[stored.names as usize].clone()
        } else {
            let names = &self.name_lists[stored.names as usize];
            let values = &self.values[end..end + names.len()];
            names.iter().copied().zip(values.iter().copied()).collect()
        };
        StepResult {
            observation: Observation::new(self.values[start + 1..end].to_vec()),
            reward: self.values[start],
            done: stored.flags & DONE != 0,
            feasible: stored.flags & FEASIBLE != 0,
            info,
        }
    }
}

/// One stored entry of a shard.
#[derive(Debug, Clone, Copy)]
struct Record {
    result: Stored,
    /// Where the key starts in [`Shard::keys`].
    key: u32,
    /// The next older record filed under the same hash, or [`NONE`].
    next: u32,
    /// The key's length, in indices.
    key_len: u16,
    /// Whether each index takes two `u32`s (low, high) in the keys.
    wide: bool,
}

/// A key being simulated now, by `owner`.
#[derive(Debug)]
struct InFlight {
    hash: usize,
    key: Vec<usize>,
    owner: ThreadId,
}

/// The table's hasher. Keys arrive hashed, so it passes their one
/// word through.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("cache keys hash as one word");
    }
    fn write_usize(&mut self, hash: usize) {
        self.0 = hash as u64;
    }
}

/// A map from a stored hash to the newest record filed under it.
type Table = HashMap<usize, u32, BuildHasherDefault<Prehashed>>;

/// One lock stripe: its stored entries, in an arena; its keys in flight;
/// and the stripe's share of the counters.
#[derive(Debug, Default)]
struct Shard {
    table: Table,
    records: Vec<Record>,
    /// Every record's key indices, end to end.
    keys: Vec<u32>,
    results: Results,
    /// The keys in flight are the first `flying`; the rest keep their
    /// key buffers for the next misses.
    in_flight: Vec<InFlight>,
    flying: usize,
    /// Lookups asleep on the stripe's condition variable, waiting for
    /// an in-flight key; a settle wakes them only if there are any.
    waiting: usize,
    hits: u64,
    twin_hits: u64,
    misses: u64,
    inserts: u64,
}

impl Shard {
    /// The record stored under `key`, hashed to `hash`.
    fn find(&self, hash: usize, key: &[usize]) -> Option<Record> {
        let mut at = *self.table.get(&hash)?;
        while at != NONE {
            let record = self.records[at as usize];
            if self.key_is(&record, key) {
                return Some(record);
            }
            at = record.next;
        }
        None
    }

    /// Whether `record`'s key is `key`.
    fn key_is(&self, record: &Record, key: &[usize]) -> bool {
        if usize::from(record.key_len) != key.len() {
            return false;
        }
        let start = record.key as usize;
        if record.wide {
            self.keys[start..start + 2 * key.len()]
                .chunks_exact(2)
                .zip(key)
                .all(|(halves, &index)| {
                    u64::from(halves[0]) | (u64::from(halves[1]) << 32) == index as u64
                })
        } else {
            self.keys[start..start + key.len()]
                .iter()
                .zip(key)
                .all(|(&stored, &index)| stored as usize == index)
        }
    }

    /// Store `result` under `key` unless an entry holds it already;
    /// whether one now does.
    fn store(&mut self, hash: usize, key: &[usize], result: &StepResult) -> bool {
        if self.find(hash, key).is_some() {
            return true;
        }
        let (Ok(key_len), Ok(key_at), Some(at)) = (
            u16::try_from(key.len()),
            u32::try_from(self.keys.len()),
            u32::try_from(self.records.len())
                .ok()
                .filter(|&at| at != NONE),
        ) else {
            return false;
        };
        let Some(result) = self.results.store(result) else {
            return false;
        };
        let wide = key.iter().any(|&index| u32::try_from(index).is_err());
        if wide {
            for &index in key {
                let index = index as u64;
                self.keys.extend([index as u32, (index >> 32) as u32]);
            }
        } else {
            self.keys.extend(key.iter().map(|&index| index as u32));
        }
        let next = self.table.insert(hash, at).unwrap_or(NONE);
        self.records.push(Record {
            result,
            key: key_at,
            next,
            key_len,
            wide,
        });
        true
    }

    /// The position of `key` among the keys in flight.
    fn flying(&self, hash: usize, key: &[usize]) -> Option<usize> {
        self.in_flight[..self.flying]
            .iter()
            .position(|f| f.hash == hash && f.key == key)
    }

    /// Mark `key` in flight, simulated by `owner`.
    fn fly(&mut self, hash: usize, key: &[usize], owner: ThreadId) {
        if self.flying == self.in_flight.len() {
            self.in_flight.push(InFlight {
                hash,
                key: Vec::new(),
                owner,
            });
        }
        let mark = &mut self.in_flight[self.flying];
        mark.hash = hash;
        mark.key.clear();
        mark.key.extend_from_slice(key);
        mark.owner = owner;
        self.flying += 1;
    }

    /// Clear the in-flight mark at `at`, keeping its buffer.
    fn land(&mut self, at: usize) {
        self.flying -= 1;
        self.in_flight.swap(at, self.flying);
    }
}

/// The stored twin sets, filed by the *bucket* of their stepped action:
/// the position of their free-dimension list in `free_lists`, then the
/// action's indices outside those dimensions. A probe hashes its own
/// bucket under each list, so it scans only the sets that agree with it
/// on every exact dimension. Sets and their results live in an arena,
/// as a shard's entries do.
#[derive(Debug, Default)]
struct TwinIndex {
    /// Each distinct list of free dimensions registered, in first-seen
    /// order; one environment names one.
    free_lists: Vec<Box<[usize]>>,
    table: Table,
    sets: Vec<TwinRecord>,
    /// Every set's action's indices outside its free dimensions.
    exact: Vec<usize>,
    /// Every set's masks, one per free dimension of its list.
    masks: Vec<u64>,
    /// A copy of each set's result.
    results: Results,
}

/// One stored twin set.
#[derive(Debug, Clone, Copy)]
struct TwinRecord {
    result: Stored,
    /// Its free-dimension list.
    list: u32,
    /// Where its exact indices start in [`TwinIndex::exact`], and how
    /// many there are.
    exact: u32,
    exact_len: u32,
    /// Where its masks start in [`TwinIndex::masks`].
    masks: u32,
    /// The next older set filed under the same hash, or [`NONE`].
    next: u32,
}

impl TwinIndex {
    /// The set at `at`, if it lies in `action`'s bucket under the list
    /// at `list`, with its masks.
    fn in_bucket(&self, at: u32, list: usize, action: &[usize]) -> Option<(&TwinRecord, &[u64])> {
        let set = &self.sets[at as usize];
        let free = &self.free_lists[list];
        let exact = &self.exact[set.exact as usize..][..set.exact_len as usize];
        (set.list as usize == list && exact_indices(free, action).eq(exact.iter().copied()))
            .then(|| (set, &self.masks[set.masks as usize..][..free.len()]))
    }

    /// The sets filed under `hash`, newest first, that lie in `action`'s
    /// bucket under the list at `list`.
    fn bucket<'t>(
        &'t self,
        hash: usize,
        list: usize,
        action: &'t [usize],
    ) -> impl Iterator<Item = (&'t TwinRecord, &'t [u64])> + 't {
        let head = self.table.get(&hash).copied().unwrap_or(NONE);
        std::iter::successors((head != NONE).then_some(head), move |&at| {
            let next = self.sets[at as usize].next;
            (next != NONE).then_some(next)
        })
        .filter_map(move |at| self.in_bucket(at, list, action))
    }
}

/// `action`'s indices outside the dimensions `free` (increasing).
fn exact_indices<'a>(free: &'a [usize], action: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    let mut free = free.iter().peekable();
    action
        .iter()
        .enumerate()
        .filter(move |&(dim, _)| free.next_if_eq(&&dim).is_none())
        .map(|(_, &index)| index)
}

/// Whether `action`, in a set's bucket, is a member of the set with
/// these masks over the dimensions `free`.
fn admits(free: &[usize], masks: &[u64], action: &[usize]) -> bool {
    free.iter()
        .zip(masks)
        .all(|(&dim, &mask)| action[dim] < 64 && mask >> action[dim] & 1 == 1)
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
    /// Keys this cache's hash with a random seed, as `HashMap` does:
    /// designs may come from outside (a warm start), so nobody can pick
    /// keys that all land in one bucket.
    hasher: RandomState,
    /// The stored twin sets. Lookups take this lock only after missing
    /// their exact key, inside their shard's lock; registering a set takes
    /// it alone.
    twins: Mutex<TwinIndex>,
    /// Whether any twin set is stored: until one is, a miss skips the
    /// twin index.
    has_twins: AtomicBool,
    /// Sends every key to one hash, so tests can collide keys at will.
    #[cfg(test)]
    colliding: bool,
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
            hasher: RandomState::new(),
            twins: Mutex::default(),
            has_twins: AtomicBool::new(false),
            #[cfg(test)]
            colliding: false,
        }
    }

    /// The keyed hash of `key`: the one hash a lookup computes. It picks
    /// the shard and files the key in the shard's table.
    fn hash(&self, key: &[usize]) -> usize {
        #[cfg(test)]
        if self.colliding {
            return 0x5eed;
        }
        self.hasher.hash_one(key) as usize
    }

    /// The keyed hash of `action`'s bucket under the free-dimension list
    /// at `list`, written index by index; `None` if a free dimension is
    /// past the action's end.
    fn bucket_hash(&self, list: usize, free: &[usize], action: &[usize]) -> Option<usize> {
        if free.last().is_some_and(|&dim| dim >= action.len()) {
            return None;
        }
        #[cfg(test)]
        if self.colliding {
            return Some(0x5eed);
        }
        let mut hasher = self.hasher.build_hasher();
        hasher.write_usize(list);
        for index in exact_indices(free, action) {
            hasher.write_usize(index);
        }
        Some(hasher.finish() as usize)
    }

    /// The shard of a key hashed to `hash`, picked by its middle bits:
    /// the table indexes buckets by the low bits and tags them with the
    /// top seven, so neither loses entropy within a shard.
    fn shard_index(&self, hash: usize) -> usize {
        hash.rotate_left(usize::BITS / 2) % self.shards.len()
    }

    /// Look up a design point for evaluation. A stored result is a hit,
    /// and so is a stored twin set that holds `action`. If another thread
    /// is simulating the key, wait for it: its result is a hit too.
    /// Otherwise the lookup is a miss, and the key stays in flight until
    /// the returned [`Fill`] completes or drops. The fill keeps its own
    /// copy of a missed key, so it may outlive `action`.
    pub fn lookup(&self, action: &Action) -> Lookup<'_> {
        match self.lookup_borrowed(action, action) {
            Lookup::Hit(result) => Lookup::Hit(result),
            Lookup::Miss(mut borrowed) => {
                // Hand the in-flight mark to a fill that owns its key.
                borrowed.settled = true;
                Lookup::Miss(Fill {
                    cache: self,
                    shard: borrowed.shard,
                    hash: borrowed.hash,
                    key: Cow::Owned(borrowed.key.to_vec()),
                    settled: false,
                })
            }
        }
    }

    /// [`EvalCache::lookup`] for a caller that keeps `action` alive until
    /// the fill settles, as [`CachedEnv`] does: the fill borrows the key
    /// to settle it. `raw` is the action the caller will step, which is
    /// what the twin sets are probed with; `action` is its canonical key.
    fn lookup_borrowed<'a>(&'a self, action: &'a Action, raw: &Action) -> Lookup<'a> {
        let key = action.as_slice();
        let hash = self.hash(key);
        let index = self.shard_index(hash);
        let (lock, filled) = &self.shards[index];
        let mut shard = lock.lock().expect("cache shard poisoned");
        let me = std::thread::current().id();
        loop {
            if let Some(record) = shard.find(hash, key) {
                let result = shard.results.load(&record.result);
                shard.hits += 1;
                return Lookup::Hit(result);
            }
            match shard.flying(hash, key).map(|at| shard.in_flight[at].owner) {
                Some(owner) if owner != me => {
                    shard.waiting += 1;
                    shard = filled.wait(shard).expect("cache shard poisoned");
                    shard.waiting -= 1;
                }
                // A thread that meets its own in-flight key (one cache
                // wrapped twice) simulates it again rather than wait for
                // itself.
                Some(_) => break,
                None => {
                    if let Some(result) = self.twin_lookup(raw.as_slice()) {
                        shard.hits += 1;
                        shard.twin_hits += 1;
                        return Lookup::Hit(result);
                    }
                    shard.fly(hash, key, me);
                    break;
                }
            }
        }
        shard.misses += 1;
        Lookup::Miss(Fill {
            cache: self,
            shard: index,
            hash,
            key: Cow::Borrowed(key),
            settled: false,
        })
    }

    /// The result of a stored twin set that holds `action`, if any.
    fn twin_lookup(&self, action: &[usize]) -> Option<StepResult> {
        if !self.has_twins.load(Ordering::Relaxed) {
            return None;
        }
        let twins = self.twins.lock().expect("twin index poisoned");
        twins
            .free_lists
            .iter()
            .enumerate()
            .find_map(|(list, free)| {
                let hash = self.bucket_hash(list, free, action)?;
                let (set, _) = twins
                    .bucket(hash, list, action)
                    .find(|(_, masks)| admits(free, masks, action))?;
                Some(twins.results.load(&set.result))
            })
    }

    /// File `set` under its bucket with a copy of `result`, unless a
    /// stored set already holds every member.
    fn register(&self, set: &TwinSet, result: &StepResult) {
        let free = set.free();
        let action = set.action().as_slice();
        // Never panic here: this runs from a settle.
        let mut guard = self.twins.lock().unwrap_or_else(PoisonError::into_inner);
        let twins = &mut *guard;
        let dims = free.iter().map(|&(dim, _)| dim);
        let list = match twins
            .free_lists
            .iter()
            .position(|known| known.iter().copied().eq(dims.clone()))
        {
            Some(list) => list,
            None => {
                twins.free_lists.push(dims.collect());
                twins.free_lists.len() - 1
            }
        };
        let hash = self
            .bucket_hash(list, &twins.free_lists[list], action)
            .expect("a twin set's free dimensions lie inside its action");
        let covered = twins.bucket(hash, list, action).any(|(_, masks)| {
            masks
                .iter()
                .zip(free)
                .all(|(&own, &(_, other))| other & !own == 0)
        });
        if covered {
            return;
        }
        let (Ok(list_at), Ok(exact), Ok(masks), Some(at)) = (
            u32::try_from(list),
            u32::try_from(twins.exact.len()),
            u32::try_from(twins.masks.len()),
            u32::try_from(twins.sets.len())
                .ok()
                .filter(|&at| at != NONE),
        ) else {
            return;
        };
        let Some(result) = twins.results.store(result) else {
            return;
        };
        twins
            .exact
            .extend(exact_indices(&twins.free_lists[list], action));
        twins.masks.extend(free.iter().map(|&(_, mask)| mask));
        let next = twins.table.insert(hash, at).unwrap_or(NONE);
        twins.sets.push(TwinRecord {
            result,
            list: list_at,
            exact,
            exact_len: (twins.exact.len() - exact as usize) as u32,
            masks,
            next,
        });
        self.has_twins.store(true, Ordering::Relaxed);
    }

    /// Settle `key`'s in-flight mark: store `result` if there is one and
    /// the key has no entry yet, clear the mark, and wake the lookups
    /// waiting on the shard, if any; then register the result's twin
    /// set, if it has one.
    fn settle(
        &self,
        index: usize,
        hash: usize,
        key: &[usize],
        result: Option<(&StepResult, Option<&TwinSet>)>,
    ) {
        let (lock, filled) = &self.shards[index];
        // Never panic here: this runs from `Fill::drop`, on unwind too.
        let mut shard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let mut twins = None;
        if let Some((result, set)) = result {
            if shard.store(hash, key, result) {
                shard.inserts += 1;
                twins = set.map(|set| (set, result));
            }
        }
        if let Some(at) = shard.flying(hash, key) {
            shard.land(at);
        }
        let wake = shard.waiting > 0;
        drop(shard);
        if wake {
            filled.notify_all();
        }
        if let Some((set, result)) = twins {
            self.register(set, result);
        }
    }

    /// Number of distinct canonical design points stored (keys are the
    /// actions [`CachedEnv`] looked up, after
    /// [`Environment::canonical`]).
    pub fn len(&self) -> usize {
        self.stats().entries as usize
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters, summed over the shards: one lock per
    /// shard, whatever the number of entries.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for (lock, _) in &self.shards {
            let shard = lock.lock().expect("cache shard poisoned");
            stats.hits += shard.hits;
            stats.twin_hits += shard.twin_hits;
            stats.misses += shard.misses;
            stats.inserts += shard.inserts;
            stats.entries += shard.records.len() as u64;
        }
        stats
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
    /// The key's hash, from the lookup: settling does not hash again.
    hash: usize,
    key: Cow<'a, [usize]>,
    /// Set once the slot is stored or handed on; the drop then leaves it.
    settled: bool,
}

impl Fill<'_> {
    /// Store the key's simulated result.
    pub fn complete(self, result: StepResult) {
        self.store(&result, None);
    }

    /// Store a borrowed result, packed straight into the cache, and
    /// register its twin set, if it has one: later lookups of any member
    /// are hits on this result.
    fn store(mut self, result: &StepResult, twins: Option<&TwinSet>) {
        self.settled = true;
        self.cache
            .settle(self.shard, self.hash, &self.key, Some((result, twins)));
    }
}

impl Drop for Fill<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.cache.settle(self.shard, self.hash, &self.key, None);
        }
    }
}

/// An [`Environment`] wrapper that answers repeated design points from
/// an [`EvalCache`], keyed by [`Environment::canonical`] of each action.
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
    /// simulation of the same key. `key` is `raw`'s canonical form.
    fn probe<'c>(&self, cache: &'c EvalCache, key: &'c Action, raw: &Action) -> Lookup<'c> {
        let _span = self.telemetry.span(Phase::CacheLookup);
        let found = cache.lookup_borrowed(key, raw);
        self.telemetry.incr(Counter::CacheLookups);
        self.telemetry.incr(match found {
            Lookup::Hit(_) => Counter::CacheHits,
            Lookup::Miss(_) => Counter::CacheMisses,
        });
        found
    }

    /// Complete a miss with its settled result and twin set, mirroring
    /// the write into telemetry; an uncacheable result abandons the fill
    /// instead.
    fn remember(&self, fill: Fill<'_>, result: &StepResult, twins: Option<&TwinSet>) {
        if cacheable(result) {
            fill.store(result, twins);
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
        let Some(cache) = self.cache.as_deref() else {
            return self.inner.step(action);
        };
        let canonical = self.inner.canonical(action);
        let key = canonical.as_ref().unwrap_or(action);
        let fill = match self.probe(cache, key, action) {
            Lookup::Hit(memoized) => return memoized,
            Lookup::Miss(fill) => fill,
        };
        let result = self.inner.step(action);
        self.remember(fill, &result, None);
        result
    }
    /// With a cache, a miss asks the inner environment for its twin set
    /// ([`Environment::try_step_with_twins`]), so that later lookups it
    /// covers are hits.
    fn try_step(&mut self, action: &Action) -> crate::error::Result<StepResult> {
        if self.cache.is_none() {
            return self.inner.try_step(action);
        }
        self.try_step_with_twins(action).map(|(result, _)| result)
    }
    /// A hit reports no twin set; a miss reports the inner environment's.
    fn try_step_with_twins(
        &mut self,
        action: &Action,
    ) -> crate::error::Result<(StepResult, Option<TwinSet>)> {
        let Some(cache) = self.cache.as_deref() else {
            return self.inner.try_step_with_twins(action);
        };
        let canonical = self.inner.canonical(action);
        let key = canonical.as_ref().unwrap_or(action);
        let fill = match self.probe(cache, key, action) {
            Lookup::Hit(memoized) => return Ok((memoized, None)),
            Lookup::Miss(fill) => fill,
        };
        // A failed attempt must never poison the memo: errors propagate
        // uncached (the `?` drops the fill, and the retry machinery will
        // probe again), and corrupted non-finite results are likewise
        // not worth remembering.
        let (result, twins) = self.inner.try_step_with_twins(action)?;
        self.remember(fill, &result, twins.as_ref());
        Ok((result, twins))
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.telemetry = recorder.clone();
        self.inner.set_telemetry(recorder);
    }
    fn canonical(&self, action: &Action) -> Option<Action> {
        self.inner.canonical(action)
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
impl EvalCache {
    /// A cache whose every key hashes alike: each lookup meets every
    /// stored key of the table, and only the index comparison tells
    /// them apart.
    fn colliding(shards: usize) -> Self {
        EvalCache {
            colliding: true,
            ..Self::with_shards(shards)
        }
    }

    /// Lookups waiting on any shard.
    fn waiters(&self) -> usize {
        self.shards
            .iter()
            .map(|(lock, _)| lock.lock().expect("cache shard poisoned").waiting)
            .sum()
    }

    /// Spin until `n` lookups wait on the cache's shards.
    fn await_waiters(&self, n: usize) {
        while self.waiters() != n {
            std::thread::yield_now();
        }
    }

    /// The shard `key` lives in.
    fn shard_of(&self, key: &[usize]) -> usize {
        self.shard_index(self.hash(key))
    }

    /// The stored name `name` in `action`'s info, if the result is
    /// stored and its names are static.
    fn stored_info_name(&self, action: &Action, name: &str) -> Option<&'static str> {
        let key = action.as_slice();
        let shard = self.shards[self.shard_of(key)]
            .0
            .lock()
            .expect("cache shard poisoned");
        let stored = shard.find(self.hash(key), key)?.result;
        if stored.flags & OWNED_INFO != 0 {
            return None;
        }
        shard.results.name_lists[stored.names as usize]
            .iter()
            .copied()
            .find(|&stored| stored == name)
    }
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

    /// Store `result` under `action(i)` and serve it back.
    fn round_trip(cache: &EvalCache, i: usize, result: &StepResult) -> StepResult {
        miss(cache, i).complete(result.clone());
        match cache.lookup(&action(i)) {
            Lookup::Hit(served) => served,
            Lookup::Miss(_) => panic!("{i} was stored"),
        }
    }

    #[test]
    fn stored_names_are_the_simulators_static_strings() {
        // The literals a simulator names its values with; the cache
        // must keep these very strings, not copies of them.
        const ENERGY: &str = "energy";
        const AREA: &str = "area";
        let cache = EvalCache::with_shards(1);
        for i in 0..2 {
            let result = StepResult::terminal(Observation::new(vec![i as f64]), 1.0)
                .with_info(ENERGY, 2.0 * i as f64)
                .with_info(AREA, 3.0);
            assert_eq!(round_trip(&cache, i, &result), result);
        }
        for (name, literal) in [("energy", ENERGY), ("area", AREA)] {
            for i in 0..2 {
                let stored = cache.stored_info_name(&action(i), name).unwrap();
                assert!(std::ptr::eq(stored, literal), "`{name}` was copied");
            }
        }
        assert!(cache.stored_info_name(&action(0), "latency").is_none());
        // A hit hands the same static strings back.
        let Lookup::Hit(served) = cache.lookup(&action(1)) else {
            panic!("1 was stored");
        };
        for (entry, literal) in served.info.entries().iter().zip([AREA, ENERGY]) {
            assert!(matches!(entry.0, Cow::Borrowed(name) if std::ptr::eq(name, literal)));
        }
    }

    #[test]
    fn a_stored_entry_is_a_three_word_record() {
        assert_eq!(std::mem::size_of::<Stored>(), 12);
        assert_eq!(std::mem::size_of::<Record>(), 24);
        assert_eq!(std::mem::size_of::<TwinRecord>(), 32);
    }

    #[test]
    fn an_owned_info_name_round_trips_as_exact_bits() {
        let cache = EvalCache::new();
        let made_at_run_time = format!("lane{}_energy", 3);
        let result = StepResult::terminal(Observation::new(vec![-0.0, 1.5]), -0.0)
            .with_info(
                made_at_run_time.clone(),
                f64::from_bits(0x8000_0000_0000_0001),
            )
            .with_info("area", -0.0)
            .with_info("zeta", f64::MIN_POSITIVE);
        let served = round_trip(&cache, 2, &result);
        assert_eq!(served, result);
        let entries = |r: &StepResult| -> Vec<(String, u64, bool)> {
            r.info
                .entries()
                .iter()
                .map(|(name, v)| (name.to_string(), v.to_bits(), matches!(name, Cow::Owned(_))))
                .collect()
        };
        assert_eq!(entries(&served), entries(&result));
        let names: Vec<&str> = served.info.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["area", "lane3_energy", "zeta"]);
        assert_eq!(served.reward.to_bits(), (-0.0f64).to_bits());
        assert_eq!(served.observation.get(0).to_bits(), (-0.0f64).to_bits());
        // A second lookup is served from the same stored copy.
        let Lookup::Hit(again) = cache.lookup(&action(2)) else {
            panic!("2 was stored");
        };
        assert_eq!(entries(&again), entries(&result));
    }

    #[test]
    fn colliding_hashes_still_serve_each_key_its_own_result() {
        let cache = EvalCache::colliding(4);
        let keys: Vec<Action> = (0..40)
            .map(|i| Action::new(vec![i % 5, i / 5, 7]))
            .collect();
        let hashes: std::collections::HashSet<usize> =
            keys.iter().map(|k| cache.hash(k.as_slice())).collect();
        assert_eq!(hashes.len(), 1, "the test hasher must collide every key");
        for (i, key) in keys.iter().enumerate() {
            let Lookup::Miss(fill) = cache.lookup(key) else {
                panic!("{key:?} hit before it was stored");
            };
            fill.complete(
                StepResult::terminal(Observation::new(vec![i as f64]), -(i as f64))
                    .with_info("index", i as f64),
            );
        }
        for (i, key) in keys.iter().enumerate().rev() {
            let Lookup::Hit(served) = cache.lookup(key) else {
                panic!("{key:?} was stored");
            };
            assert_eq!(served.observation.get(0), i as f64, "{key:?}");
            assert_eq!(served.info["index"], i as f64);
        }
        // An abandoned key leaves its colliding neighbours in place.
        drop(miss_on(&cache, &Action::new(vec![9, 9, 9])));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (40, 41, 40, 40)
        );
    }

    #[test]
    fn a_waiter_on_a_colliding_shard_is_woken_by_its_own_key() {
        let cache = EvalCache::colliding(1);
        let fill = miss(&cache, 3);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.lookup(&action(3)));
            cache.await_waiters(1);
            // Settling another key of the shard wakes the waiter, which
            // finds its own key still in flight and waits again.
            miss(&cache, 4).complete(StepResult::terminal(Observation::new(vec![4.0]), 4.0));
            cache.await_waiters(1);
            fill.complete(StepResult::terminal(Observation::new(vec![3.0]), 3.0));
            match waiter.join().unwrap() {
                Lookup::Hit(result) => assert_eq!(result.reward, 3.0),
                Lookup::Miss(_) => panic!("the waiter simulated the key again"),
            }
        });
        assert_eq!(cache.waiters(), 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 2));
    }

    /// Miss on `key` through `lookup`, returning the fill.
    fn miss_on<'c>(cache: &'c EvalCache, key: &Action) -> Fill<'c> {
        match cache.lookup(key) {
            Lookup::Miss(fill) => fill,
            Lookup::Hit(_) => panic!("expected a miss on {key:?}"),
        }
    }

    #[test]
    fn an_empty_info_round_trips_exactly() {
        let cache = EvalCache::new();
        let result = StepResult::infeasible(Observation::new(vec![0.0; 3]), -1.0);
        let served = round_trip(&cache, 0, &result);
        assert_eq!(served, result);
        assert!(served.info.is_empty());
        assert!(!served.feasible);
    }

    #[test]
    fn a_negative_zero_observation_round_trips_exactly() {
        let cache = EvalCache::new();
        let result = StepResult::terminal(Observation::new(vec![-0.0, 0.0, -1.5]), -0.0)
            .with_info("slack", -0.0);
        let served = round_trip(&cache, 4, &result);
        let bits = |r: &StepResult| -> Vec<u64> {
            let info = r.info.values().map(|v| v.to_bits());
            let observation = r.observation.as_slice().iter().map(|v| v.to_bits());
            observation
                .chain(info)
                .chain([r.reward.to_bits()])
                .collect()
        };
        assert_eq!(bits(&served), bits(&result));
        assert_eq!(served, result);
    }

    /// A peak over `[4, 3, 5]` that ignores its second dimension and
    /// reports it free in every twin set; its third dimension is free
    /// only at indices 0 and 1 (it is read only from index 2 up).
    #[derive(Debug, Clone)]
    struct Twinned(PeakEnv);

    impl Twinned {
        fn new() -> Self {
            Twinned(PeakEnv::new(&[4, 3, 5], vec![2, 0, 4]))
        }
    }

    impl Environment for Twinned {
        fn name(&self) -> &str {
            "twinned"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn observation_labels(&self) -> Vec<String> {
            self.0.observation_labels()
        }
        fn step(&mut self, action: &Action) -> StepResult {
            let third = action.index(2).max(1);
            self.0
                .step(&Action::new(vec![action.index(0), 0, third]))
                .with_info("seen", third as f64)
        }
        fn try_step_with_twins(
            &mut self,
            action: &Action,
        ) -> crate::error::Result<(StepResult, Option<TwinSet>)> {
            let third = if action.index(2) < 2 {
                0b11
            } else {
                1 << action.index(2)
            };
            let set = TwinSet::new(action.clone(), [(1, 0b111), (2, third)]);
            Ok((self.step(action), Some(set)))
        }
    }

    fn twinned(cache: &Arc<EvalCache>) -> CachedEnv<crate::env::CountingEnv<Twinned>> {
        CachedEnv::new(crate::env::CountingEnv::new(Twinned::new()), cache.clone())
    }

    fn a(indices: [usize; 3]) -> Action {
        Action::new(indices.to_vec())
    }

    #[test]
    fn a_twin_hit_is_bit_identical_counted_and_inserts_nothing() {
        let cache = Arc::new(EvalCache::new());
        let mut env = twinned(&cache);
        let mut plain = Twinned::new();
        let first = env.try_step(&a([3, 0, 1])).unwrap();
        for twin in [[3, 1, 0], [3, 2, 1], [3, 0, 0]] {
            let served = env.try_step(&a(twin)).unwrap();
            assert_eq!(served, plain.step(&a(twin)), "{twin:?}");
            assert_eq!(served, first);
        }
        assert_eq!(env.inner().samples(), 1, "a twin was simulated");
        let stats = cache.stats();
        assert_eq!(
            (
                stats.hits,
                stats.twin_hits,
                stats.misses,
                stats.inserts,
                stats.entries
            ),
            (3, 3, 1, 1, 1)
        );
        // The stepped key itself is still an exact hit.
        env.try_step(&a([3, 0, 1])).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.twin_hits, stats.entries), (4, 3, 1));
    }

    #[test]
    fn designs_outside_every_set_are_simulated() {
        let cache = Arc::new(EvalCache::new());
        let mut env = twinned(&cache);
        env.try_step(&a([1, 2, 0])).unwrap();
        // Another exact index, and a masked-out free index.
        for other in [[2, 2, 0], [1, 2, 2], [1, 0, 3]] {
            env.try_step(&a(other)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.twin_hits, stats.misses), (0, 0, 4));
        assert_eq!(env.inner().samples(), 4);
        // Index 3's own set answers only index 3.
        env.try_step(&a([1, 1, 3])).unwrap();
        assert_eq!(cache.stats().twin_hits, 1);
        assert_eq!(env.inner().samples(), 4);
    }

    #[test]
    fn plain_step_answers_from_twin_sets_but_registers_none() {
        let cache = Arc::new(EvalCache::new());
        let mut env = twinned(&cache);
        env.step(&a([0, 0, 4]));
        env.step(&a([0, 1, 4]));
        assert_eq!(cache.stats().twin_hits, 0, "step registered a set");
        env.try_step(&a([0, 2, 4])).unwrap();
        assert_eq!(env.step(&a([0, 0, 4])), env.step(&a([0, 1, 4])));
        env.step(&a([2, 1, 0]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.twin_hits, stats.misses), (2, 0, 4));
        env.try_step(&a([2, 2, 1])).unwrap();
        env.step(&a([2, 0, 1]));
        let stats = cache.stats();
        assert_eq!((stats.twin_hits, stats.misses, stats.entries), (1, 5, 5));
    }

    #[test]
    fn uncacheable_results_register_no_twin_set() {
        use crate::fault::{FaultPlan, FaultyEnv};
        let cache = Arc::new(EvalCache::new());
        let mut env = CachedEnv::new(
            FaultyEnv::new(Twinned::new(), FaultPlan::new(3).corrupt(1.0)),
            cache.clone(),
        );
        assert!(!env.try_step(&a([1, 0, 0])).unwrap().reward.is_finite());
        assert!(!env.try_step(&a([1, 1, 0])).unwrap().reward.is_finite());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
    }

    #[test]
    fn entries_stay_exact_across_fills_abandons_uncacheable_results_and_twin_hits() {
        use crate::fault::{FaultPlan, FaultyEnv};
        let cache = Arc::new(EvalCache::with_shards(4));
        let entries = || (cache.stats().entries, cache.len());
        for i in 0..5 {
            miss(&cache, i).complete(StepResult::terminal(Observation::new(vec![i as f64]), 0.0));
        }
        assert_eq!(entries(), (5, 5));
        drop(miss(&cache, 9));
        assert_eq!(entries(), (5, 5), "an abandoned fill stored an entry");
        let mut corrupt = CachedEnv::new(
            FaultyEnv::new(Twinned::new(), FaultPlan::new(3).corrupt(1.0)),
            cache.clone(),
        );
        let _ = corrupt.try_step(&a([1, 0, 0])).unwrap();
        assert_eq!(entries(), (5, 5), "an uncacheable result stored an entry");
        let mut env = twinned(&cache);
        env.try_step(&a([3, 0, 1])).unwrap();
        assert_eq!(entries(), (6, 6));
        for twin in [[3, 1, 0], [3, 2, 1]] {
            env.try_step(&a(twin)).unwrap();
        }
        assert_eq!(entries(), (6, 6), "a twin hit stored an entry");
        // One cache wrapped twice: the thread misses its own in-flight
        // key again, and both fills store it. Each counts an insert; the
        // second stores nothing new.
        let (outer, inner) = (miss(&cache, 7), miss(&cache, 7));
        let result = StepResult::terminal(Observation::new(vec![7.0]), 0.0);
        inner.complete(result.clone());
        outer.complete(result);
        assert_eq!(entries(), (7, 7));
        let stats = cache.stats();
        assert_eq!(
            (stats.twin_hits, stats.misses, stats.inserts, stats.entries),
            (2, 10, 8, 7)
        );
    }

    #[test]
    fn colliding_twin_buckets_still_serve_each_set_its_own_result() {
        let cache = Arc::new(EvalCache::colliding(2));
        let mut env = twinned(&cache);
        let mut plain = Twinned::new();
        for first in 0..4 {
            env.try_step(&a([first, 0, 4])).unwrap();
        }
        for first in (0..4).rev() {
            let twin = a([first, 2, 4]);
            assert_eq!(env.try_step(&twin).unwrap(), plain.step(&twin));
        }
        let stats = cache.stats();
        assert_eq!((stats.twin_hits, stats.misses), (4, 4));
    }

    #[test]
    fn a_fill_stored_with_twins_answers_its_members() {
        let cache = EvalCache::new();
        let stepped = a([2, 1, 3]);
        let Lookup::Miss(fill) = cache.lookup(&stepped) else {
            panic!("empty cache hit");
        };
        let result = StepResult::terminal(Observation::new(vec![-0.0]), 1.5).with_info("x", 2.0);
        fill.store(&result, Some(&TwinSet::new(stepped, [(0, 0b0110)])));
        for (member, hit) in [([1, 1, 3], true), ([2, 1, 3], true), ([0, 1, 3], false)] {
            match cache.lookup(&a(member)) {
                Lookup::Hit(served) => {
                    assert!(hit, "{member:?}");
                    assert_eq!(served, result);
                    assert_eq!(served.observation.get(0).to_bits(), (-0.0f64).to_bits());
                }
                Lookup::Miss(fill) => {
                    assert!(!hit, "{member:?}");
                    drop(fill);
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.twin_hits, stats.misses, stats.entries),
            (2, 1, 2, 1)
        );
    }

    #[test]
    fn a_covered_set_is_not_stored_twice() {
        let cache = EvalCache::new();
        let wide = TwinSet::new(a([0, 0, 0]), [(1, 0b111)]);
        let narrow = TwinSet::new(a([0, 2, 0]), [(1, 0b110)]);
        for (key, set) in [([0, 0, 0], &wide), ([0, 2, 0], &narrow)] {
            // A raw action outside both sets, so the second key misses.
            let key = a(key);
            let Lookup::Miss(fill) = cache.lookup_borrowed(&key, &a([9, 9, 9])) else {
                panic!("{key:?} hit");
            };
            fill.store(
                &StepResult::terminal(Observation::new(vec![]), 0.0),
                Some(set),
            );
        }
        let twins = cache.twins.lock().unwrap();
        assert_eq!(twins.free_lists.len(), 1);
        assert_eq!(twins.sets.len(), 1);
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
