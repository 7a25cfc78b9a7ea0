//! The data-oriented (structure-of-arrays) engine — the default hot path.
//!
//! Layout:
//!
//! * **Bank state** is four flat `u64` arrays plus one `f64` array
//!   (`open_row`/`ready_at`/`activated_at`/`data_done`/`hit_ewma`),
//!   indexed by bank. `u64::MAX` is the "row closed" sentinel (a real
//!   row index is an address shifted right by ≥ 13 bits, so it can
//!   never collide).
//! * **Request arena** is a pooled set of ≤ [`MAX_SLOTS`] slots split
//!   into parallel arrays (`row`/`id`/`bank`), with occupancy tracked in
//!   bitmasks: `occ` (live slots), `writes` (live write slots) and — for
//!   the `Bankwise` organization only — `bank_slots[b]`/`occ_banks`.
//!   Admission takes `(!occ).trailing_zeros()`; no per-bank `Vec`
//!   queues, no slab, no free list. A tiny `order` array keeps the live
//!   slots in arrival order (admissions append, removals shift ≤
//!   buffer-size bytes).
//! * **Candidate selection** walks `order` — already the arrival-id
//!   tie-break order — tracking the strictly-best `(class, arbiter
//!   key)`, which is exactly the reference engine's lexicographic
//!   `(class, key, id)` minimum. The run is monomorphized over
//!   `(scheduler, arbiter, buffer)`, so the policy matches const-fold
//!   away and the common FR-FCFS walk exits at the first row hit
//!   (class 0 with a constant key cannot be beaten by a later id).
//!   The default policy triple (FR-FCFS, FIFO arbiter, shared buffer)
//!   skips the walk entirely: one pass ORs per-candidate row-hit flags
//!   into a bitmask and `trailing_zeros` picks the oldest hit — fully
//!   branchless selection.
//! * **Outstanding completions** live in the monotone [`EventWheel`]
//!   (see `wheel.rs` for the monotonicity proof).
//!
//! The controller semantics (steps 1–9 and all timing arithmetic) are
//! copied verbatim from the reference engine so outputs stay
//! bit-identical; the equivalence proptests enforce it.
//!
//! A witnessed run ([`run_witnessed`]) is a separate instantiation that
//! also records the [`Witness`] facts at each decision point; the plain
//! one compiles them away, so it runs exactly the code above.

use super::{EngineCtx, EventWheel, RawRun, Witness};
use crate::controller::{Arbiter, PagePolicy, RefreshPolicy, Scheduler, SchedulerBuffer};
use crate::power::OpCounts;
use crate::trace::MemoryRequest;

/// Bank-state lanes available (`occ_banks` is one `u64`).
pub const MAX_BANKS: usize = 64;
/// Request-arena slots available (`occ` is one `u32`).
pub const MAX_SLOTS: usize = 32;

/// "No open row" sentinel for the `open_row` lane.
const CLOSED: u64 = u64::MAX;

// Const-generic policy selectors (one `run_impl` instantiation per
// combination, so every per-candidate `match` folds to straight-line
// code).
const S_FIFO: u8 = 0;
const S_FRFCFS: u8 = 1;
const S_FRFCFSGRP: u8 = 2;
const A_SIMPLE: u8 = 0;
const A_FIFO: u8 = 1;
const A_REORDER: u8 = 2;
const B_BANKWISE: u8 = 0;
const B_READWRITE: u8 = 1;
const B_SHARED: u8 = 2;

pub(super) fn run(ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun {
    dispatch::<false>(ctx, trace).0
}

/// [`run`], plus the run's [`Witness`].
pub(super) fn run_witnessed(ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> (RawRun, Witness) {
    dispatch::<true>(ctx, trace)
}

fn dispatch<const WITNESS: bool>(
    ctx: &EngineCtx<'_>,
    trace: &[MemoryRequest],
) -> (RawRun, Witness) {
    macro_rules! arb {
        ($sc:expr, $bc:expr, $ad:expr) => {
            match ctx.config.arbiter {
                Arbiter::Simple => run_impl::<$sc, A_SIMPLE, $bc, $ad, WITNESS>(ctx, trace),
                Arbiter::Fifo => run_impl::<$sc, A_FIFO, $bc, $ad, WITNESS>(ctx, trace),
                Arbiter::Reorder => run_impl::<$sc, A_REORDER, $bc, $ad, WITNESS>(ctx, trace),
            }
        };
    }
    macro_rules! sched {
        ($bc:expr, $ad:expr) => {
            match ctx.config.scheduler {
                Scheduler::Fifo => arb!(S_FIFO, $bc, $ad),
                Scheduler::FrFcfs => arb!(S_FRFCFS, $bc, $ad),
                Scheduler::FrFcfsGrp => arb!(S_FRFCFSGRP, $bc, $ad),
            }
        };
    }
    macro_rules! buf {
        ($ad:expr) => {
            match ctx.config.scheduler_buffer {
                SchedulerBuffer::Bankwise => sched!(B_BANKWISE, $ad),
                SchedulerBuffer::ReadWrite => sched!(B_READWRITE, $ad),
                SchedulerBuffer::Shared => sched!(B_SHARED, $ad),
            }
        };
    }
    // `ADAPTIVE` folds the hit-rate EWMA away for the static page
    // policies: the update is a serial FP dependency chain per bank, a
    // real fraction of per-issue latency, and Open/Closed never read it.
    match ctx.config.page_policy {
        PagePolicy::Open | PagePolicy::Closed => buf!(false),
        PagePolicy::OpenAdaptive | PagePolicy::ClosedAdaptive => buf!(true),
    }
}

fn run_impl<
    const SCHED: u8,
    const ARB: u8,
    const BUF: u8,
    const ADAPTIVE: bool,
    const WITNESS: bool,
>(
    ctx: &EngineCtx<'_>,
    trace: &[MemoryRequest],
) -> (RawRun, Witness) {
    let t = ctx.timing;
    let cfg = ctx.config;
    let n = trace.len();
    let nb = ctx.mapping.banks();
    debug_assert!(nb <= MAX_BANKS && cfg.request_buffer_size <= MAX_SLOTS);
    debug_assert!(n <= u32::MAX as usize);

    // Hoist timing and config scalars into locals so the hot loop reads
    // registers, not struct fields behind references.
    let (t_rcd, t_rp, t_cl, t_cwl) = (t.t_rcd, t.t_rp, t.t_cl, t.t_cwl);
    let (t_ras, t_burst, t_wr) = (t.t_ras, t.t_burst, t.t_wr);
    let (t_rfc, t_refi) = (t.t_rfc, t.t_refi);
    let mapping = *ctx.mapping;
    let page_policy = cfg.page_policy;
    // Hoisted keep-open decision for the static policies (`ADAPTIVE`
    // folds the per-issue policy match away entirely).
    let static_keep_open = page_policy == PagePolicy::Open;
    let refresh_on = cfg.refresh_policy == RefreshPolicy::AllBank;
    let buf_cap = cfg.request_buffer_size;
    let cap_mask: u32 = if buf_cap >= 32 {
        u32::MAX
    } else {
        (1u32 << buf_cap) - 1
    };
    let mat = cfg.max_active_transactions;
    let max_postponed = cfg.refresh_max_postponed as i64;
    let max_pulled_in = cfg.refresh_max_pulled_in as i64;

    // SoA bank state.
    let mut open = [CLOSED; MAX_BANKS];
    let mut ready = [0u64; MAX_BANKS];
    let mut activated = [0u64; MAX_BANKS];
    let mut done = [0u64; MAX_BANKS];
    let mut ewma = [0f64; MAX_BANKS];

    // SoA request arena. `order[..buffered]` lists live slots in
    // arrival order; the per-bank masks exist only for `Bankwise`.
    let mut slot_row = [0u64; MAX_SLOTS];
    let mut slot_id = [0u32; MAX_SLOTS];
    let mut slot_bank = [0u8; MAX_SLOTS];
    let mut order = [0u8; MAX_SLOTS];
    let mut occ: u32 = 0;
    let mut writes: u32 = 0;
    let mut bank_slots = [0u32; MAX_BANKS];
    let mut occ_banks: u64 = 0;
    let mut buffered = 0usize;

    let mut completion = vec![0u64; n];
    let mut outstanding = EventWheel::with_capacity(mat.min(n.max(1)));
    let mut next_admit = 0usize;
    let mut now = 0u64;
    let mut bus_free = 0u64;
    let mut counts = OpCounts::default();
    let mut row_hits = 0u64;
    let mut row_misses = 0u64;
    let mut row_conflicts = 0u64;
    let mut next_refi = t_refi;
    let mut refresh_debt: i64 = 0;
    let mut last_type_write = false;
    let mut rr_bank = 0usize;
    // Witness facts (see `Witness`), touched only when `WITNESS`.
    let mut max_unforced_debt = 0i64;
    let mut min_forced_debt = i64::MAX;
    let mut shadow_opportunity = false;
    let mut multi_bank = false;
    let mut mixed = false;
    let mut ewma_between = false;

    loop {
        // 1. Retire issued requests whose data has returned.
        outstanding.retire_until(now);

        // 2. Admit arrivals within buffer and transaction-window limits.
        while next_admit < n
            && trace[next_admit].arrival <= now
            && buffered < buf_cap
            && buffered + outstanding.len() < mat
        {
            let req = trace[next_admit];
            let coords = mapping.decode(req.addr);
            // Masking the indices to the (power-of-two) array widths
            // lets the compiler drop every bounds check in this loop.
            let slot = (!occ & cap_mask).trailing_zeros() as usize & (MAX_SLOTS - 1);
            let bk = coords.bank & (MAX_BANKS - 1);
            slot_row[slot] = coords.row;
            slot_id[slot] = next_admit as u32;
            slot_bank[slot] = bk as u8;
            order[buffered & (MAX_SLOTS - 1)] = slot as u8;
            let bit = 1u32 << slot;
            occ |= bit;
            writes |= bit * u32::from(req.is_write);
            if BUF == B_BANKWISE {
                bank_slots[bk] |= bit;
                occ_banks |= 1u64 << bk;
            }
            buffered += 1;
            next_admit += 1;
        }

        // 3. Refresh engine. Debt never goes negative (a refresh only
        // fires with positive debt), so nothing can happen before the
        // next tREFI boundary unless debt is already outstanding — one
        // compound test skips the whole block on the common path.
        if refresh_on && (refresh_debt > 0 || now >= next_refi) {
            while now >= next_refi {
                refresh_debt += 1;
                next_refi += t_refi;
            }
            let forced = refresh_debt > max_postponed;
            let opportunistic = buffered == 0 && next_admit < n && refresh_debt > -max_pulled_in;
            // A test the postpone bound decided: record which side of
            // it this debt fell on.
            if WITNESS && !(opportunistic && refresh_debt > 0) {
                if forced {
                    min_forced_debt = min_forced_debt.min(refresh_debt);
                } else {
                    max_unforced_debt = max_unforced_debt.max(refresh_debt);
                }
            }
            if forced || (opportunistic && refresh_debt > 0) {
                let mut start = now;
                for &r in ready.iter().take(nb) {
                    start = start.max(r);
                }
                for b in 0..nb {
                    if open[b] != CLOSED {
                        counts.precharges += 1;
                        open[b] = CLOSED;
                    }
                    ready[b] = start + t_rfc;
                }
                counts.refreshes += 1;
                refresh_debt -= 1;
                now = start + t_rfc;
                continue;
            }
        }

        // 4. Nothing schedulable: advance time to the next event.
        if buffered == 0 {
            if next_admit >= n {
                break; // every request issued; data returns on its own
            }
            // Without refresh: an `AllBank` controller that had never
            // refreshed would owe `now / tREFI` here, and with any debt
            // it would refresh opportunistically now.
            if WITNESS && !refresh_on && !shadow_opportunity && now >= t_refi {
                shadow_opportunity = true;
            }
            let arrival_evt = trace[next_admit].arrival;
            // Admission may also be blocked by the transaction window.
            let evt = if outstanding.len() >= mat {
                outstanding.front().unwrap_or(arrival_evt)
            } else {
                arrival_evt
            };
            now = now.max(evt).max(now + 1);
            continue;
        }

        // 5. Visibility. `Shared` sees everything; `ReadWrite` hides
        // writes while any read is buffered; `Bankwise` restricts the
        // walk to the round-robin bank (found with two trailing_zeros
        // over the occupied-banks mask instead of an O(banks) probe).
        let hide_writes = BUF == B_READWRITE && (occ & !writes) != 0 && writes != 0;
        let mut rr_chosen = 0usize;
        if BUF == B_BANKWISE {
            let from_cursor = occ_banks >> rr_bank;
            rr_chosen = if from_cursor != 0 {
                rr_bank + from_cursor.trailing_zeros() as usize
            } else {
                occ_banks.trailing_zeros() as usize
            };
            rr_bank = (rr_chosen + 1) % nb;
        }
        if WITNESS {
            if !mixed {
                mixed = (occ & !writes) != 0 && writes != 0;
            }
            // The one-bank check runs only with two entries live, and
            // only until it first fails.
            if !multi_bank && buffered >= 2 {
                multi_bank = if BUF == B_BANKWISE {
                    occ_banks & (occ_banks - 1) != 0
                } else {
                    let first = slot_bank[order[0] as usize & (MAX_SLOTS - 1)];
                    order[1..buffered]
                        .iter()
                        .any(|&s| slot_bank[s as usize & (MAX_SLOTS - 1)] != first)
                };
            }
        }

        // 6–7. Candidate selection: walk the live slots in arrival
        // order tracking the strictly-best `(class, arbiter key)` —
        // identical to the reference's lexicographic
        // `(class, key, id)` minimum, because the walk order IS the id
        // tie-break. `SCHED`/`ARB` are const, so the policy code below
        // folds to straight-line form, and a class-0 candidate with a
        // bottomed-out key ends the walk early (on FR-FCFS + FIFO
        // arbitration — the common shape — that is the first row hit).
        let mut best_class = u64::MAX;
        let mut best_key = u64::MAX;
        let mut best_slot = 0usize;
        let mut best_pos = 0usize;
        if SCHED == S_FRFCFS && ARB == A_FIFO && BUF == B_SHARED {
            // Fully branchless FR-FCFS for the default policy triple:
            // one pass builds a row-hit bitmask in arrival-position
            // space, then `trailing_zeros` picks the oldest hit — or,
            // with no hit set, returns 32, which the slot mask maps to
            // position 0, the oldest request. Identical to the generic
            // walk below (class = !hit, key = 0, id tie-break), with no
            // data-dependent branches for the predictor to miss.
            let mut hitmask: u32 = 0;
            for pos in 0..buffered {
                let slot = order[pos & (MAX_SLOTS - 1)] as usize & (MAX_SLOTS - 1);
                let b = slot_bank[slot] as usize & (MAX_BANKS - 1);
                hitmask |= u32::from(open[b] == slot_row[slot]) << pos;
            }
            best_pos = hitmask.trailing_zeros() as usize & (MAX_SLOTS - 1);
            best_slot = order[best_pos] as usize & (MAX_SLOTS - 1);
            best_class = 0;
        } else {
            for (pos, &s) in order.iter().enumerate().take(buffered) {
                let slot = s as usize & (MAX_SLOTS - 1);
                if BUF == B_BANKWISE && slot_bank[slot] as usize != rr_chosen {
                    continue;
                }
                let is_write = writes >> slot & 1 != 0;
                if hide_writes && is_write {
                    continue;
                }
                let b = slot_bank[slot] as usize & (MAX_BANKS - 1);
                let hit = open[b] == slot_row[slot];
                let class: u64 = match SCHED {
                    S_FIFO => 0,
                    S_FRFCFS => u64::from(!hit),
                    _ => {
                        if hit {
                            0
                        } else if is_write == last_type_write {
                            1
                        } else {
                            2
                        }
                    }
                };
                let key: u64 = match ARB {
                    A_SIMPLE => b as u64,
                    A_FIFO => 0,
                    _ => {
                        let base = now.max(ready[b]);
                        let extra = if hit {
                            0
                        } else if open[b] != CLOSED {
                            t_rp + t_rcd
                        } else {
                            t_rcd
                        };
                        base + extra
                    }
                };
                if class < best_class || (class == best_class && key < best_key) {
                    best_class = class;
                    best_key = key;
                    best_slot = slot;
                    best_pos = pos;
                    if class == 0 && (ARB == A_FIFO || key == 0) {
                        break; // nothing later (= younger) can beat this
                    }
                }
            }
        }
        debug_assert!(
            best_class != u64::MAX,
            "non-empty buffer yields a candidate"
        );

        // Remove the winner from the arena (shift ≤ buffer-size bytes;
        // a manual byte loop, so no memmove call for a 4-byte shift).
        let slot = best_slot & (MAX_SLOTS - 1);
        let bit = 1u32 << slot;
        let p_row = slot_row[slot];
        let p_bank = slot_bank[slot] as usize & (MAX_BANKS - 1);
        let p_id = slot_id[slot] as usize;
        let p_is_write = writes & bit != 0;
        occ &= !bit;
        writes &= !bit;
        if BUF == B_BANKWISE {
            bank_slots[p_bank] &= !bit;
            if bank_slots[p_bank] == 0 {
                occ_banks &= !(1u64 << p_bank);
            }
        }
        buffered -= 1;
        for pos in best_pos..buffered {
            order[pos & (MAX_SLOTS - 1)] = order[(pos + 1) & (MAX_SLOTS - 1)];
        }

        // 8. Bank timing engine — arithmetic identical to the
        // reference, restructured into selects. The hit/conflict/miss
        // three-way is data-dependent and mispredicts on mixed traces,
        // so every outcome's value is computed unconditionally and the
        // winner chosen with flag arithmetic the compiler lowers to
        // cmov. (`was_hit` implies `had_open`: a real row index can
        // never equal the CLOSED sentinel, so the three flag products
        // below partition exactly as the reference's if/else chain.)
        let start = now.max(ready[p_bank]);
        let open_row = open[p_bank];
        let was_hit = open_row == p_row;
        let had_open = open_row != CLOSED;
        row_hits += u64::from(was_hit);
        row_conflicts += u64::from(had_open & !was_hit);
        row_misses += u64::from(!had_open);
        counts.activates += u64::from(!was_hit);
        counts.precharges += u64::from(had_open & !was_hit);
        let pre_start = start.max(activated[p_bank] + t_ras).max(done[p_bank]);
        // Conflict: activate only after the precharge; miss: activate
        // immediately. A hit leaves the activation timestamp unchanged.
        let act_at = if had_open { pre_start + t_rp } else { start };
        activated[p_bank] = if was_hit { activated[p_bank] } else { act_at };
        let col_ready = if was_hit { start } else { act_at + t_rcd };
        let cas = if p_is_write { t_cwl } else { t_cl };
        let data_start = (col_ready + cas).max(bus_free);
        let data_end = data_start + t_burst;
        bus_free = data_end;
        completion[p_id] = data_end;
        outstanding.push(data_end);
        counts.writes += u64::from(p_is_write);
        counts.reads += u64::from(!p_is_write);
        last_type_write = p_is_write;

        // Column commands pipeline: the bank can accept its next CAS
        // one burst (≈tCCD) after this one issued; data return is
        // overlapped. Writes add recovery before the row can close.
        let cas_issue = data_start - cas;
        let next_cas = cas_issue + t_burst;
        let data_done = data_end + u64::from(p_is_write) * t_wr;

        // 9. Page policy.
        let keep_open = if ADAPTIVE {
            ewma[p_bank] = 0.875 * ewma[p_bank] + 0.125 * f64::from(was_hit);
            if WITNESS {
                ewma_between |= ewma[p_bank] > 0.25 && ewma[p_bank] <= 0.75;
            }
            match page_policy {
                PagePolicy::OpenAdaptive => ewma[p_bank] > 0.25,
                _ => ewma[p_bank] > 0.75, // ClosedAdaptive
            }
        } else {
            static_keep_open
        };
        if keep_open {
            open[p_bank] = p_row;
            ready[p_bank] = next_cas;
        } else {
            // The access itself activated (or reused) a row, so closing
            // always costs one precharge — same as the reference.
            open[p_bank] = CLOSED;
            counts.precharges += 1;
            ready[p_bank] = data_done + t_rp;
        }
        done[p_bank] = data_done;

        now = start + 1;
    }

    let raw = RawRun {
        completion,
        counts,
        row_hits,
        row_misses,
        row_conflicts,
    };
    if !WITNESS {
        return (raw, Witness::default());
    }
    // `now` only grows, so the last refresh check saw the largest debt.
    let shadow_debt = if refresh_on {
        0
    } else {
        now.checked_div(t_refi)
            .map_or(i64::MAX, |debt| i64::try_from(debt).unwrap_or(i64::MAX))
    };
    let witness = Witness {
        max_unforced_debt,
        min_forced_debt,
        shadow_debt,
        shadow_opportunity,
        multi_bank,
        mixed,
        ewma_between,
    };
    (raw, witness)
}
