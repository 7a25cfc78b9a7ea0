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
//! once too. The table stores each key's hash in front of its indices,
//! in one boxed slice, and compares the indices after a hash match, so
//! a collision costs a comparison, never a wrong result.
//!
//! Each shard is one map from the key to a slot that is either in
//! flight (with the simulating thread's id) or done, plus the shard's
//! share of the hit, miss and insert counters, kept under its lock;
//! [`EvalCache::stats`] sums them. A lookup that waits for an in-flight
//! key counts itself as waiting on the shard, and a settle signals the
//! shard's condition variable only if some lookup waits. A
//! [`CachedEnv`] miss allocates its key once, for the table: the
//! [`Fill`] borrows the looked-up action to find the slot again, and
//! settling turns the slot done in place. A done slot packs its result:
//! the observation as a boxed slice, the reward, the two flags, and
//! `info` as a boxed slice of `(&'static str, value)` pairs. Simulators
//! name their values with literals, so a stored name is the literal
//! itself, with nothing to intern or allocate; a result with a name made
//! at run time keeps its whole [`Info`](crate::env::Info) instead. A hit
//! rebuilds the [`StepResult`] with the same bits and names as the
//! simulator's, in two allocations (the observation and the info list).
//! Counted with a tracking allocator over 100,000 stored DRAM results
//! (10-index keys, three info values), an entry takes 269 B of heap,
//! table included, or about 293 B once the allocator rounds each block,
//! as before the hash was stored: it fits the key block's rounding slack
//! (261 B and 293 B with interned names and no stored hash; a `Vec` key
//! and a whole `StepResult` in a separate done map took 627 B, about
//! 725 B).
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
use std::borrow::{Borrow, Cow};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
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

/// A stored [`StepResult`], packed: boxed slices in place of the `Vec`s.
#[derive(Debug)]
struct Packed {
    observation: Box<[f64]>,
    reward: f64,
    done: bool,
    feasible: bool,
    info: PackedInfo,
}

/// A stored result's info. Simulators name their values with literals,
/// so the usual form keeps each name as its `&'static str`: nothing is
/// allocated or freed per name. A result with a name made at run time
/// keeps its whole [`Info`] instead. Either form is 16 B.
#[derive(Debug)]
enum PackedInfo {
    Static(Box<[(&'static str, f64)]>),
    Owned(Box<Info>),
}

impl Packed {
    fn pack(result: &StepResult) -> Packed {
        let names: Option<Box<[(&'static str, f64)]>> = result
            .info
            .entries()
            .iter()
            .map(|(name, value)| match name {
                Cow::Borrowed(name) => Some((*name, *value)),
                Cow::Owned(_) => None,
            })
            .collect();
        Packed {
            observation: result.observation.as_slice().into(),
            reward: result.reward,
            done: result.done,
            feasible: result.feasible,
            info: match names {
                Some(names) => PackedInfo::Static(names),
                None => PackedInfo::Owned(Box::new(result.info.clone())),
            },
        }
    }

    /// The result as the simulator returned it: the same values, bits
    /// and names.
    fn unpack(&self) -> StepResult {
        StepResult {
            observation: Observation::new(self.observation.to_vec()),
            reward: self.reward,
            done: self.done,
            feasible: self.feasible,
            info: match &self.info {
                PackedInfo::Static(names) => names.iter().copied().collect(),
                PackedInfo::Owned(info) => Info::clone(info),
            },
        }
    }
}

/// A key's state: simulated now by the owning thread, or stored: on its
/// own, or shared with the twin set its simulation registered.
#[derive(Debug)]
enum Slot {
    InFlight(ThreadId),
    Done(Packed),
    Shared(Arc<Packed>),
}

impl Slot {
    /// The stored result, if the slot is done.
    fn packed(&self) -> Option<&Packed> {
        match self {
            Slot::InFlight(_) => None,
            Slot::Done(packed) => Some(packed),
            Slot::Shared(packed) => Some(packed),
        }
    }
}

/// A stored key: the keyed hash it was filed under, then the index
/// vector, in one boxed slice. Keeping the hash means no probe or
/// resize hashes the indices again; keeping it in the key's block
/// rather than beside it leaves each table bucket as small as a bare
/// boxed key's.
#[derive(Debug)]
struct Key(Box<[usize]>);

impl Key {
    fn new(hash: usize, indices: &[usize]) -> Self {
        Key(std::iter::once(hash)
            .chain(indices.iter().copied())
            .collect())
    }
}

/// A looked-up key, borrowed from the action.
struct Probe<'k> {
    hash: usize,
    indices: &'k [usize],
}

/// What the table hashes and compares, for a stored [`Key`] and a
/// borrowed [`Probe`] alike, so that a lookup needs no owned key.
trait KeyView {
    fn filed_hash(&self) -> usize;
    fn indices(&self) -> &[usize];
}

impl KeyView for Key {
    fn filed_hash(&self) -> usize {
        self.0[0]
    }
    fn indices(&self) -> &[usize] {
        &self.0[1..]
    }
}

impl KeyView for Probe<'_> {
    fn filed_hash(&self) -> usize {
        self.hash
    }
    fn indices(&self) -> &[usize] {
        self.indices
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.filed_hash());
    }
}

/// Equal hashes are not enough: two keys match only if their indices
/// do, so a hash collision costs a comparison, never a wrong result.
impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.filed_hash() == other.filed_hash() && self.indices() == other.indices()
    }
}

impl Eq for dyn KeyView + '_ {}

impl<'k> Borrow<dyn KeyView + 'k> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'k) {
        self
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for Key {}

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

/// One lock stripe: every stored or in-flight key of the stripe, in one
/// map, and the stripe's share of the counters.
#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<Key, Slot, BuildHasherDefault<Prehashed>>,
    /// Lookups asleep on the stripe's condition variable, waiting for
    /// an in-flight key; a settle wakes them only if there are any.
    waiting: usize,
    hits: u64,
    twin_hits: u64,
    misses: u64,
    inserts: u64,
}

/// The stored twin sets, filed by the *bucket* of their stepped action:
/// its indices outside the set's free dimensions, after the position of
/// the free-dimension list in `free_lists`. A probe computes its own
/// bucket under each list, so it scans only the sets that agree with it
/// on every exact dimension.
#[derive(Debug, Default)]
struct TwinIndex {
    /// Each distinct list of free dimensions registered, in first-seen
    /// order; one environment names one.
    free_lists: Vec<Box<[usize]>>,
    buckets: HashMap<Key, Vec<TwinEntry>, BuildHasherDefault<Prehashed>>,
}

/// One stored twin set: a mask per free dimension, in its list's order,
/// and the result it shares with its simulated key's slot.
#[derive(Debug)]
struct TwinEntry {
    masks: Box<[u64]>,
    result: Arc<Packed>,
}

impl TwinEntry {
    /// Whether `action`, already in this entry's bucket, is a member.
    fn admits(&self, free: &[usize], action: &[usize]) -> bool {
        free.iter()
            .zip(self.masks.iter())
            .all(|(&dim, &mask)| action[dim] < 64 && mask >> action[dim] & 1 == 1)
    }

    /// Whether every member of a set with `masks` is a member here.
    fn covers(&self, masks: &[u64]) -> bool {
        self.masks
            .iter()
            .zip(masks)
            .all(|(&own, &other)| other & !own == 0)
    }
}

/// `action`'s bucket under the free-dimension list at `list`: the list's
/// position, then `action`'s indices outside `free`, or `None` if a free
/// dimension is past the action's end.
fn bucket(list: usize, free: &[usize], action: &[usize]) -> Option<Vec<usize>> {
    if free.last().is_some_and(|&dim| dim >= action.len()) {
        return None;
    }
    let mut free = free.iter().peekable();
    let exact = action
        .iter()
        .enumerate()
        .filter(|&(dim, _)| free.next_if_eq(&&dim).is_none())
        .map(|(_, &index)| index);
    Some(std::iter::once(list).chain(exact).collect())
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
    /// to find its slot again, so the table holds the only copy of a
    /// missed key. `raw` is the action the caller will step, which is
    /// what the twin sets are probed with; `action` is its canonical key.
    fn lookup_borrowed<'a>(&'a self, action: &'a Action, raw: &Action) -> Lookup<'a> {
        let key = action.as_slice();
        let hash = self.hash(key);
        let index = self.shard_index(hash);
        let probe = Probe { hash, indices: key };
        let (lock, filled) = &self.shards[index];
        let mut shard = lock.lock().expect("cache shard poisoned");
        let me = std::thread::current().id();
        loop {
            let slot = shard.slots.get(&probe as &dyn KeyView);
            if let Some(packed) = slot.and_then(Slot::packed) {
                let result = packed.unpack();
                shard.hits += 1;
                return Lookup::Hit(result);
            }
            match slot {
                Some(&Slot::InFlight(owner)) if owner != me => {
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
                    shard.slots.insert(Key::new(hash, key), Slot::InFlight(me));
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
                let bucket = bucket(list, free, action)?;
                let probe = Probe {
                    hash: self.hash(&bucket),
                    indices: &bucket,
                };
                let entries = twins.buckets.get(&probe as &dyn KeyView)?;
                let entry = entries.iter().find(|e| e.admits(free, action))?;
                Some(entry.result.unpack())
            })
    }

    /// File `set` under its bucket, sharing `result`, unless a stored set
    /// already holds every member.
    fn register(&self, set: &TwinSet, result: Arc<Packed>) {
        let free: Box<[usize]> = set.free().iter().map(|&(dim, _)| dim).collect();
        let masks: Box<[u64]> = set.free().iter().map(|&(_, mask)| mask).collect();
        // Never panic here: this runs from a settle.
        let mut twins = self.twins.lock().unwrap_or_else(PoisonError::into_inner);
        let list = match twins.free_lists.iter().position(|known| *known == free) {
            Some(list) => list,
            None => {
                twins.free_lists.push(free.clone());
                twins.free_lists.len() - 1
            }
        };
        let bucket = bucket(list, &free, set.action().as_slice())
            .expect("a twin set's free dimensions lie inside its action");
        let hash = self.hash(&bucket);
        let probe = Probe {
            hash,
            indices: &bucket,
        };
        let entry = TwinEntry { masks, result };
        match twins.buckets.get_mut(&probe as &dyn KeyView) {
            Some(entries) => {
                if !entries.iter().any(|e| e.covers(&entry.masks)) {
                    entries.push(entry);
                }
            }
            None => {
                twins.buckets.insert(Key::new(hash, &bucket), vec![entry]);
            }
        }
        self.has_twins.store(true, Ordering::Relaxed);
    }

    /// Settle `key`'s in-flight slot: store `result` if there is one,
    /// else clear the slot, and wake the lookups waiting on the shard,
    /// if any; then register the result's twin set, if it has one. A
    /// slot another fill of the same thread already stored is only ever
    /// overwritten, never cleared.
    fn settle(
        &self,
        index: usize,
        hash: usize,
        key: &[usize],
        result: Option<(&StepResult, Option<&TwinSet>)>,
    ) {
        let mut twins = None;
        let packed = result.map(|(result, set)| match set {
            Some(set) => {
                let shared = Arc::new(Packed::pack(result));
                twins = Some((set, Arc::clone(&shared)));
                Slot::Shared(shared)
            }
            None => Slot::Done(Packed::pack(result)),
        });
        let probe = Probe { hash, indices: key };
        let (lock, filled) = &self.shards[index];
        // Never panic here: this runs from `Fill::drop`, on unwind too.
        let mut shard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        match packed {
            Some(packed) => {
                match shard.slots.get_mut(&probe as &dyn KeyView) {
                    Some(slot) => *slot = packed,
                    // A nested fill of this thread abandoned the key.
                    None => {
                        shard.slots.insert(Key::new(hash, key), packed);
                    }
                }
                shard.inserts += 1;
            }
            None => {
                if let Some(Slot::InFlight(_)) = shard.slots.get(&probe as &dyn KeyView) {
                    shard.slots.remove(&probe as &dyn KeyView);
                }
            }
        }
        let wake = shard.waiting > 0;
        drop(shard);
        if wake {
            filled.notify_all();
        }
        if let Some((set, shared)) = twins {
            self.register(set, shared);
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

    /// Snapshot the counters, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for (lock, _) in &self.shards {
            let shard = lock.lock().expect("cache shard poisoned");
            stats.hits += shard.hits;
            stats.twin_hits += shard.twin_hits;
            stats.misses += shard.misses;
            stats.inserts += shard.inserts;
            stats.entries += shard
                .slots
                .values()
                .filter(|slot| slot.packed().is_some())
                .count() as u64;
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
        let probe = Probe {
            hash: self.hash(key),
            indices: key,
        };
        let shard = self.shards[self.shard_of(key)]
            .0
            .lock()
            .expect("cache shard poisoned");
        let packed = shard.slots.get(&probe as &dyn KeyView)?.packed()?;
        let PackedInfo::Static(names) = &packed.info else {
            return None;
        };
        names
            .iter()
            .find(|(stored, _)| *stored == name)
            .map(|&(stored, _)| stored)
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
    fn a_packed_info_is_two_words_either_way() {
        assert_eq!(std::mem::size_of::<PackedInfo>(), 16);
        assert_eq!(std::mem::size_of::<&'static str>(), 16);
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
        assert_eq!(twins.buckets.values().map(Vec::len).sum::<usize>(), 1);
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
