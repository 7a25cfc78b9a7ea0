//! The configurable DRAM memory controller and its transaction-level
//! simulator.
//!
//! The controller exposes exactly the ten parameters of the paper's
//! Fig. 3(a). Requests flow: trace → request buffer (admission limited by
//! `RequestBufferSize` and `MaxActiveTransactions`) → scheduler + arbiter
//! pick → bank timing engine (page policy decides row-buffer fate) →
//! response queue (in-order or out-of-order delivery). An all-bank refresh
//! engine can postpone or pull in refreshes within configured limits.

use crate::device::{AddressMapping, DeviceTiming, Topology};
use crate::engine::{EngineCtx, EngineKind, RawRun, Witness};
use crate::power::{OpCounts, PowerModel};
use crate::trace::MemoryRequest;
use serde::{Deserialize, Serialize};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Keep the row open after every access.
    Open,
    /// Keep open while the recent hit rate justifies it.
    OpenAdaptive,
    /// Precharge immediately after every access.
    Closed,
    /// Precharge unless the recent hit rate is very high.
    ClosedAdaptive,
}

impl PagePolicy {
    /// All variants in the paper's order.
    pub const ALL: [PagePolicy; 4] = [
        PagePolicy::Open,
        PagePolicy::OpenAdaptive,
        PagePolicy::Closed,
        PagePolicy::ClosedAdaptive,
    ];
}

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheduler {
    /// Strictly oldest-first.
    Fifo,
    /// Row hits first, grouped by access type to limit bus turnarounds.
    FrFcfsGrp,
    /// Row hits first, then oldest-first.
    FrFcfs,
}

impl Scheduler {
    /// All variants in the paper's order.
    pub const ALL: [Scheduler; 3] = [Scheduler::Fifo, Scheduler::FrFcfsGrp, Scheduler::FrFcfs];
}

/// Which buffered requests the scheduler can see each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerBuffer {
    /// Per-bank queues served round-robin.
    Bankwise,
    /// Separate read and write queues; reads drain first.
    ReadWrite,
    /// One shared queue, everything visible.
    Shared,
}

impl SchedulerBuffer {
    /// All variants in the paper's order.
    pub const ALL: [SchedulerBuffer; 3] = [
        SchedulerBuffer::Bankwise,
        SchedulerBuffer::ReadWrite,
        SchedulerBuffer::Shared,
    ];
}

/// Tie-breaking policy when several requests are equally schedulable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arbiter {
    /// Static bank priority (cheapest, least fair).
    Simple,
    /// Arrival order.
    Fifo,
    /// Earliest-possible-start wins (costs reorder logic power).
    Reorder,
}

impl Arbiter {
    /// All variants in the paper's order.
    pub const ALL: [Arbiter; 3] = [Arbiter::Simple, Arbiter::Fifo, Arbiter::Reorder];
}

/// Response delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RespQueue {
    /// Responses return in request order; a slow older request delays all
    /// younger ones.
    Fifo,
    /// Responses return as soon as data is available.
    Reorder,
}

impl RespQueue {
    /// All variants in the paper's order.
    pub const ALL: [RespQueue; 2] = [RespQueue::Fifo, RespQueue::Reorder];
}

/// Refresh strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefreshPolicy {
    /// No refresh at all (cheapest; valid for short-lived or non-volatile
    /// experiments — the paper's space includes it).
    NoRefresh,
    /// Periodic all-bank refresh every `tREFI`, with postpone/pull-in
    /// flexibility.
    AllBank,
}

impl RefreshPolicy {
    /// All variants in the paper's order.
    pub const ALL: [RefreshPolicy; 2] = [RefreshPolicy::NoRefresh, RefreshPolicy::AllBank];
}

/// The ten-parameter memory-controller configuration of Fig. 3(a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// How many due refreshes may be postponed (1–8).
    pub refresh_max_postponed: u32,
    /// How many refreshes may be pulled in early (1–8).
    ///
    /// Inert in this model: an opportunistic refresh fires only with
    /// positive refresh debt, so debt never goes negative and the
    /// `debt > -max_pulled_in` bound always holds when a refresh can
    /// fire. One of Fig. 3(a)'s ten parameters therefore changes no
    /// result, and the DRAM env's cache key ignores it (`dram_space`).
    /// Letting debt go negative would make it live, change every DRAM
    /// result and both goldens, and fail the `canonical` proptests that
    /// pin the rule.
    pub refresh_max_pulled_in: u32,
    /// Scheduler-visible request-buffer entries (1–8).
    pub request_buffer_size: usize,
    /// Outstanding-transaction window (1–128, powers of two).
    pub max_active_transactions: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Request scheduling policy.
    pub scheduler: Scheduler,
    /// Scheduler queue organization.
    pub scheduler_buffer: SchedulerBuffer,
    /// Tie-breaking arbiter.
    pub arbiter: Arbiter,
    /// Response delivery order.
    pub resp_queue: RespQueue,
    /// Refresh strategy.
    pub refresh_policy: RefreshPolicy,
}

impl Default for ControllerConfig {
    /// A sensible mid-range controller (FR-FCFS, open page, refresh on).
    fn default() -> Self {
        ControllerConfig {
            refresh_max_postponed: 1,
            refresh_max_pulled_in: 1,
            request_buffer_size: 4,
            max_active_transactions: 16,
            page_policy: PagePolicy::Open,
            scheduler: Scheduler::FrFcfs,
            scheduler_buffer: SchedulerBuffer::Shared,
            arbiter: Arbiter::Fifo,
            resp_queue: RespQueue::Fifo,
            refresh_policy: RefreshPolicy::AllBank,
        }
    }
}

/// Aggregate results of one trace simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Mean request latency (arrival → response) in nanoseconds.
    pub avg_latency_ns: f64,
    /// 95th-percentile request latency in nanoseconds.
    pub p95_latency_ns: f64,
    /// Average power over the simulation in watts.
    pub power_w: f64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Simulated duration in cycles.
    pub total_cycles: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to a precharged bank (row miss).
    pub row_misses: u64,
    /// Accesses that had to close another row first (row conflict).
    pub row_conflicts: u64,
    /// Operation counters used for the energy model.
    pub counts: OpCounts,
}

impl SimStats {
    /// Row-buffer hit fraction over all accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The memory controller: device timing + power model + configuration +
/// channel/rank topology.
#[derive(Debug, Clone)]
pub struct MemoryController {
    timing: DeviceTiming,
    mapping: AddressMapping,
    power: PowerModel,
    config: ControllerConfig,
    topology: Topology,
}

impl MemoryController {
    /// Build a controller with default DDR3 timing and power models and
    /// the single-channel, single-rank topology.
    pub fn new(config: ControllerConfig) -> Self {
        MemoryController {
            timing: DeviceTiming::ddr3_1600(),
            mapping: AddressMapping::new(),
            power: PowerModel::ddr3(),
            config,
            topology: Topology::single(),
        }
    }

    /// Override the device timing, builder-style. The address mapping is
    /// re-derived so every bank of the new device (times the topology's
    /// rank multiplier) is addressable.
    pub fn timing(mut self, timing: DeviceTiming) -> Self {
        self.mapping = AddressMapping::with_banks(timing.banks * self.topology.ranks);
        self.timing = timing;
        self
    }

    /// Override the channel/rank topology, builder-style. Ranks multiply
    /// the per-channel bank count (rank bits sit above the bank bits in
    /// the address mapping); channels partition the trace by address
    /// hash into fully independent controller lanes.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.mapping = AddressMapping::with_banks(self.timing.banks * topology.ranks);
        self.topology = topology;
        self
    }

    /// Override the power model, builder-style.
    pub fn power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The active channel/rank topology.
    pub fn current_topology(&self) -> Topology {
        self.topology
    }

    fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            timing: &self.timing,
            mapping: &self.mapping,
            config: &self.config,
        }
    }

    /// The engine [`MemoryController::simulate`] dispatches to: the SoA
    /// engine whenever the configuration shape fits its bitmask limits,
    /// otherwise the always-capable reference engine.
    pub fn default_engine(&self) -> EngineKind {
        if EngineKind::Soa.supports(&self.ctx()) {
            EngineKind::Soa
        } else {
            EngineKind::Reference
        }
    }

    /// Simulate a trace to completion and report aggregate statistics,
    /// using [`MemoryController::default_engine`].
    ///
    /// Output is bit-identical across every [`EngineKind`]; the test
    /// suite compares all engines on every canonical workload, on
    /// randomized configurations and on multi-channel topologies.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn simulate(&self, trace: &[MemoryRequest]) -> SimStats {
        self.simulate_with(self.default_engine(), trace)
    }

    /// Simulate a trace on an explicitly chosen timing engine (the
    /// bench harness measures engines against each other; everything
    /// else should use [`MemoryController::simulate`]).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn simulate_with(&self, kind: EngineKind, trace: &[MemoryRequest]) -> SimStats {
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        if self.topology.channels == 1 {
            let raw = kind.run(&self.ctx(), trace);
            self.account_single(trace, raw)
        } else {
            self.simulate_channels(kind, trace)
        }
    }

    /// [`MemoryController::simulate`], plus the engine's [`Witness`] when
    /// one SoA run produced the result: a single-channel topology whose
    /// shape the SoA engine supports. Multi-channel runs and reference
    /// fallbacks give `None`.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub(crate) fn simulate_witnessed(
        &self,
        trace: &[MemoryRequest],
    ) -> (SimStats, Option<Witness>) {
        if self.topology.channels != 1 {
            return (self.simulate(trace), None);
        }
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        let (raw, witness) = self.default_engine().run_witnessed(&self.ctx(), trace);
        (self.account_single(trace, raw), witness)
    }

    /// Simulate a trace on the linear-scan reference engine (the
    /// correctness oracle the optimized engines are tested against).
    /// Kept `pub` so the bench harness can measure engine gains and the
    /// test suite can enforce bit-identical outputs; not part of the
    /// stable API.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    #[doc(hidden)]
    pub fn simulate_linear_scan(&self, trace: &[MemoryRequest]) -> SimStats {
        self.simulate_with(EngineKind::Reference, trace)
    }

    /// Multi-channel simulation: partition the trace by the topology's
    /// address hash, run each non-empty partition as an independent
    /// engine lane, then merge the per-channel results. Each channel
    /// owns its request buffer, data bus, refresh engine and response
    /// queue, so a channel's sub-simulation is exactly the
    /// single-channel simulation of its partition — the conservation
    /// proptests enforce this.
    fn simulate_channels(&self, kind: EngineKind, trace: &[MemoryRequest]) -> SimStats {
        let channels = self.topology.channels;
        let n = trace.len();
        let mut subtraces: Vec<Vec<MemoryRequest>> = vec![Vec::new(); channels];
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); channels];
        for (id, req) in trace.iter().enumerate() {
            let ch = self.topology.channel_of(req.addr);
            subtraces[ch].push(*req);
            ids[ch].push(id as u32);
        }

        let mut completion = vec![0u64; n];
        let mut counts_per: Vec<OpCounts> = vec![OpCounts::default(); channels];
        let mut counts = OpCounts::default();
        let mut row_hits = 0u64;
        let mut row_misses = 0u64;
        let mut row_conflicts = 0u64;
        for (ch, subtrace) in subtraces.iter().enumerate() {
            if subtrace.is_empty() {
                continue; // no traffic: the channel stays power-gated
            }
            let raw = kind.run(&self.ctx(), subtrace);
            for (pos, &cycle) in raw.completion.iter().enumerate() {
                completion[ids[ch][pos] as usize] = cycle;
            }
            counts_per[ch] = raw.counts;
            counts.add(&raw.counts);
            row_hits += raw.row_hits;
            row_misses += raw.row_misses;
            row_conflicts += raw.row_conflicts;
        }

        // Stage 10, channel-aware: responses are delivered per channel
        // (a FIFO response queue chains only within its own channel),
        // and energy is evaluated per channel over that channel's own
        // active window, then summed in channel order (deterministic
        // float accumulation). Idle channels contribute nothing.
        let t = &self.timing;
        let cfg = &self.config;
        let mut last_resp = vec![0u64; channels];
        let mut final_cycle_ch = vec![0u64; channels];
        let mut total: u128 = 0;
        // The completion buffer is rewritten in place as the diff buffer
        // (each entry is read exactly once before being overwritten), so
        // the accounting tail allocates nothing and makes one pass.
        for (id, req) in trace.iter().enumerate() {
            let ch = self.topology.channel_of(req.addr);
            let resp = match cfg.resp_queue {
                RespQueue::Reorder => completion[id],
                RespQueue::Fifo => {
                    last_resp[ch] = last_resp[ch].max(completion[id]);
                    last_resp[ch]
                }
            };
            final_cycle_ch[ch] = final_cycle_ch[ch].max(resp);
            let diff = resp - req.arrival;
            total += u128::from(diff);
            completion[id] = diff;
        }
        let (avg_latency_ns, p95_latency_ns) = latency_stats(total, &mut completion, t.clock_ns);

        let mut energy_uj = 0.0;
        let mut final_cycle = 0u64;
        for ch in 0..channels {
            if subtraces[ch].is_empty() {
                continue;
            }
            final_cycle = final_cycle.max(final_cycle_ch[ch]);
            let (channel_uj, _) =
                self.power
                    .evaluate(&counts_per[ch], cfg, final_cycle_ch[ch], t.clock_ns);
            energy_uj += channel_uj;
        }
        let seconds = (final_cycle.max(1) as f64) * t.clock_ns * 1e-9;
        let power_w = energy_uj * 1e-6 / seconds;

        SimStats {
            avg_latency_ns,
            p95_latency_ns,
            power_w,
            energy_uj,
            total_cycles: final_cycle,
            row_hits,
            row_misses,
            row_conflicts,
            counts,
        }
    }

    /// Stage 10 shared by every engine (single-channel path):
    /// response-queue delivery, latency accounting and the power/energy
    /// evaluation.
    fn account_single(&self, trace: &[MemoryRequest], mut raw: RawRun) -> SimStats {
        let t = &self.timing;
        let cfg = &self.config;
        let mut last_resp = 0u64;
        let mut final_cycle = 0u64;
        let mut total: u128 = 0;
        // One fused pass: response delivery, the exact latency sum and
        // the diff buffer all come out of the same loop, and the
        // engine's own completion buffer is rewritten in place (each
        // entry is read exactly once before being overwritten) so the
        // tail allocates nothing.
        for (id, req) in trace.iter().enumerate() {
            let resp = match cfg.resp_queue {
                RespQueue::Reorder => raw.completion[id],
                RespQueue::Fifo => {
                    last_resp = last_resp.max(raw.completion[id]);
                    last_resp
                }
            };
            final_cycle = final_cycle.max(resp);
            let diff = resp - req.arrival;
            total += u128::from(diff);
            raw.completion[id] = diff;
        }
        let (avg_latency_ns, p95_latency_ns) =
            latency_stats(total, &mut raw.completion, t.clock_ns);

        let (energy_uj, power_w) = self
            .power
            .evaluate(&raw.counts, cfg, final_cycle, t.clock_ns);

        SimStats {
            avg_latency_ns,
            p95_latency_ns,
            power_w,
            energy_uj,
            total_cycles: final_cycle,
            row_hits: raw.row_hits,
            row_misses: raw.row_misses,
            row_conflicts: raw.row_conflicts,
            counts: raw.counts,
        }
    }
}

/// Mean and p95 latency in nanoseconds from raw cycle differences.
///
/// `total` is the exact integer sum of `diffs`, accumulated by the
/// caller in the same pass that built the buffer (a `u128` cannot
/// overflow for any trace an address space can hold); it is scaled once
/// by the clock — deterministic and order-independent, so every engine
/// and the multi-channel merge agree bit-for-bit. The p95 is the exact
/// order statistic via `select_nth_unstable`, O(n) instead of the full
/// sort the accounting tail used to pay.
fn latency_stats(total: u128, diffs: &mut [u64], clock_ns: f64) -> (f64, f64) {
    let n = diffs.len();
    let avg = (total as f64) * clock_ns / n as f64;
    let (_, &mut p95_cycles, _) = diffs.select_nth_unstable(((n - 1) as f64 * 0.95) as usize);
    (avg, p95_cycles as f64 * clock_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, DramWorkload, TraceConfig};
    use archgym_core::seeded_rng;
    use proptest::prelude::*;

    fn trace(wl: DramWorkload, seed: u64) -> Vec<MemoryRequest> {
        generate(wl, &TraceConfig::default(), &mut seeded_rng(seed))
    }

    fn with(f: impl FnOnce(&mut ControllerConfig)) -> ControllerConfig {
        let mut cfg = ControllerConfig::default();
        f(&mut cfg);
        cfg
    }

    #[test]
    fn simulation_completes_all_requests() {
        let stats = MemoryController::new(ControllerConfig::default())
            .simulate(&trace(DramWorkload::Cloud1, 1));
        let total = stats.counts.reads + stats.counts.writes;
        assert_eq!(total, 768);
        assert_eq!(
            stats.row_hits + stats.row_misses + stats.row_conflicts,
            total
        );
        assert!(stats.avg_latency_ns > 0.0);
        assert!(stats.total_cycles > 0);
    }

    #[test]
    fn latency_at_least_device_minimum() {
        let t = DeviceTiming::ddr3_1600();
        for wl in DramWorkload::ALL {
            let stats = MemoryController::new(ControllerConfig::default()).simulate(&trace(wl, 2));
            assert!(
                stats.avg_latency_ns >= t.min_read_latency() as f64 * t.clock_ns - 1e-9,
                "{:?}: {} ns below device floor",
                wl,
                stats.avg_latency_ns
            );
        }
    }

    #[test]
    fn stream_hits_rows_random_does_not() {
        let open = with(|c| c.page_policy = PagePolicy::Open);
        let stream = MemoryController::new(open.clone()).simulate(&trace(DramWorkload::Stream, 3));
        let random = MemoryController::new(open).simulate(&trace(DramWorkload::Random, 3));
        assert!(
            stream.hit_rate() > 0.7,
            "stream hit rate {}",
            stream.hit_rate()
        );
        assert!(
            random.hit_rate() < 0.2,
            "random hit rate {}",
            random.hit_rate()
        );
    }

    #[test]
    fn open_policy_beats_closed_on_streaming() {
        let open = MemoryController::new(with(|c| c.page_policy = PagePolicy::Open))
            .simulate(&trace(DramWorkload::Stream, 4));
        let closed = MemoryController::new(with(|c| c.page_policy = PagePolicy::Closed))
            .simulate(&trace(DramWorkload::Stream, 4));
        assert!(
            open.avg_latency_ns < closed.avg_latency_ns,
            "open {} vs closed {}",
            open.avg_latency_ns,
            closed.avg_latency_ns
        );
        // Closed pays an activate per access on a streaming trace.
        assert!(closed.counts.activates > open.counts.activates * 5);
    }

    #[test]
    fn frfcfs_not_worse_than_fifo_on_mixed_trace() {
        let fifo = MemoryController::new(with(|c| {
            c.scheduler = Scheduler::Fifo;
            c.arbiter = Arbiter::Fifo;
        }))
        .simulate(&trace(DramWorkload::Cloud2, 5));
        let frfcfs = MemoryController::new(with(|c| {
            c.scheduler = Scheduler::FrFcfs;
            c.arbiter = Arbiter::Reorder;
        }))
        .simulate(&trace(DramWorkload::Cloud2, 5));
        assert!(
            frfcfs.avg_latency_ns <= fifo.avg_latency_ns * 1.05,
            "frfcfs {} vs fifo {}",
            frfcfs.avg_latency_ns,
            fifo.avg_latency_ns
        );
        assert!(frfcfs.row_hits >= fifo.row_hits);
    }

    #[test]
    fn no_refresh_saves_power_and_never_refreshes() {
        let on = MemoryController::new(with(|c| c.refresh_policy = RefreshPolicy::AllBank))
            .simulate(&trace(DramWorkload::Random, 6));
        let off = MemoryController::new(with(|c| c.refresh_policy = RefreshPolicy::NoRefresh))
            .simulate(&trace(DramWorkload::Random, 6));
        assert_eq!(off.counts.refreshes, 0);
        assert!(on.counts.refreshes > 0, "long random trace must refresh");
        assert!(off.energy_uj < on.energy_uj);
    }

    #[test]
    fn fifo_resp_queue_never_faster_than_reorder() {
        for wl in DramWorkload::ALL {
            let fifo = MemoryController::new(with(|c| c.resp_queue = RespQueue::Fifo))
                .simulate(&trace(wl, 7));
            let reorder = MemoryController::new(with(|c| c.resp_queue = RespQueue::Reorder))
                .simulate(&trace(wl, 7));
            assert!(
                reorder.avg_latency_ns <= fifo.avg_latency_ns + 1e-9,
                "{wl:?}: reorder {} vs fifo {}",
                reorder.avg_latency_ns,
                fifo.avg_latency_ns
            );
        }
    }

    #[test]
    fn wider_transaction_window_helps_bursty_traffic() {
        let narrow = MemoryController::new(with(|c| {
            c.max_active_transactions = 1;
            c.request_buffer_size = 1;
        }))
        .simulate(&trace(DramWorkload::Cloud2, 8));
        let wide = MemoryController::new(with(|c| {
            c.max_active_transactions = 64;
            c.request_buffer_size = 8;
        }))
        .simulate(&trace(DramWorkload::Cloud2, 8));
        assert!(
            wide.avg_latency_ns < narrow.avg_latency_ns,
            "wide {} vs narrow {}",
            wide.avg_latency_ns,
            narrow.avg_latency_ns
        );
        // ... but the wide window costs static power.
        let narrow_static = PowerModel::ddr3().static_power_w(&with(|c| {
            c.max_active_transactions = 1;
            c.request_buffer_size = 1;
        }));
        let wide_static = PowerModel::ddr3().static_power_w(&with(|c| {
            c.max_active_transactions = 64;
            c.request_buffer_size = 8;
        }));
        assert!(wide_static > narrow_static);
    }

    #[test]
    fn readwrite_buffer_drains_reads_before_writes() {
        // Two requests arrive together: a write first, then a read. The
        // ReadWrite queue organization must serve the read first.
        let trace = vec![
            MemoryRequest {
                arrival: 0,
                addr: 0,
                is_write: true,
            },
            MemoryRequest {
                arrival: 0,
                addr: 1 << 20,
                is_write: false,
            },
        ];
        let mk = |buffer: SchedulerBuffer| {
            let cfg = with(|c| {
                c.scheduler_buffer = buffer;
                c.scheduler = Scheduler::Fifo;
                c.arbiter = Arbiter::Fifo;
                c.resp_queue = RespQueue::Reorder;
                c.refresh_policy = RefreshPolicy::NoRefresh;
            });
            MemoryController::new(cfg).simulate(&trace)
        };
        let rw = mk(SchedulerBuffer::ReadWrite);
        let shared = mk(SchedulerBuffer::Shared);
        // Under Shared+FIFO the write (older) goes first and the read
        // waits; under ReadWrite the read jumps the queue, so its
        // latency — and with only one read, the p95 tail — shrinks.
        assert!(
            rw.avg_latency_ns < shared.avg_latency_ns + 1e-9,
            "ReadWrite {} vs Shared {}",
            rw.avg_latency_ns,
            shared.avg_latency_ns
        );
    }

    #[test]
    fn bankwise_buffer_round_robins_across_banks() {
        // Four requests to two banks; Bankwise must alternate banks while
        // Shared+Fifo serves in arrival order. Observable via bank-level
        // parallelism: alternation overlaps activates, lowering latency
        // on a conflict-heavy pattern.
        let bank_stride = 64 << 7; // flips the bank bits
        let trace: Vec<MemoryRequest> = (0..8)
            .map(|i| MemoryRequest {
                arrival: 0,
                // Same bank twice, then the other bank twice, with
                // different rows to force conflicts within a bank.
                addr: (i / 2 % 2) as u64 * bank_stride + (i as u64) * (1 << 20),
                is_write: false,
            })
            .collect();
        let mk = |buffer: SchedulerBuffer| {
            let cfg = with(|c| {
                c.scheduler_buffer = buffer;
                c.scheduler = Scheduler::Fifo;
                c.arbiter = Arbiter::Fifo;
                c.request_buffer_size = 8;
                c.max_active_transactions = 8;
                c.refresh_policy = RefreshPolicy::NoRefresh;
            });
            MemoryController::new(cfg).simulate(&trace)
        };
        let bankwise = mk(SchedulerBuffer::Bankwise);
        let shared = mk(SchedulerBuffer::Shared);
        assert!(
            bankwise.avg_latency_ns <= shared.avg_latency_ns + 1e-9,
            "bankwise {} vs shared {}",
            bankwise.avg_latency_ns,
            shared.avg_latency_ns
        );
    }

    #[test]
    fn refresh_postpone_budget_is_respected() {
        // A long idle-free trace with AllBank refresh: with a generous
        // postpone budget, refreshes can slide; the total count over the
        // trace still tracks elapsed tREFI intervals.
        let cfg_tight = with(|c| {
            c.refresh_policy = RefreshPolicy::AllBank;
            c.refresh_max_postponed = 1;
        });
        let cfg_loose = with(|c| {
            c.refresh_policy = RefreshPolicy::AllBank;
            c.refresh_max_postponed = 8;
        });
        let tr = trace(DramWorkload::Random, 12);
        let tight = MemoryController::new(cfg_tight).simulate(&tr);
        let loose = MemoryController::new(cfg_loose).simulate(&tr);
        // Both must refresh roughly every tREFI; postponement shifts
        // timing, not long-run counts (within the postpone window).
        let diff = tight.counts.refreshes.abs_diff(loose.counts.refreshes);
        assert!(diff <= 8, "refresh counts diverged: {tight:?} vs {loose:?}");
        assert!(tight.counts.refreshes > 0);
    }

    #[test]
    fn deterministic_for_same_config_and_trace() {
        let tr = trace(DramWorkload::Cloud1, 9);
        let a = MemoryController::new(ControllerConfig::default()).simulate(&tr);
        let b = MemoryController::new(ControllerConfig::default()).simulate(&tr);
        assert_eq!(a, b);
    }

    #[test]
    fn ddr4_grade_runs_and_uses_all_sixteen_banks() {
        let tr = trace(DramWorkload::Random, 15);
        let ddr4 = MemoryController::new(ControllerConfig::default())
            .timing(DeviceTiming::ddr4_2400())
            .simulate(&tr);
        let ddr3 = MemoryController::new(ControllerConfig::default()).simulate(&tr);
        assert_eq!(ddr4.counts.reads + ddr4.counts.writes, 768);
        assert!(ddr4.avg_latency_ns > 0.0 && ddr4.avg_latency_ns < 1e5);
        // Random pointer chasing: similar absolute latency band across
        // grades; DDR4 must not be pathologically slower.
        assert!(
            ddr4.avg_latency_ns < ddr3.avg_latency_ns * 1.5,
            "ddr4 {} vs ddr3 {}",
            ddr4.avg_latency_ns,
            ddr3.avg_latency_ns
        );
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = MemoryController::new(ControllerConfig::default()).simulate(&[]);
    }

    #[test]
    fn engine_equivalence_on_canonical_workloads() {
        // Every engine bit-identical to the linear-scan reference on
        // every canonical workload, across a spread of
        // scheduler/arbiter/buffer organizations that exercise each
        // visibility and tie-break path.
        let configs = [
            ControllerConfig::default(),
            with(|c| {
                c.scheduler = Scheduler::FrFcfsGrp;
                c.scheduler_buffer = SchedulerBuffer::Bankwise;
                c.arbiter = Arbiter::Reorder;
            }),
            with(|c| {
                c.scheduler = Scheduler::Fifo;
                c.scheduler_buffer = SchedulerBuffer::ReadWrite;
                c.arbiter = Arbiter::Reorder;
                c.page_policy = PagePolicy::ClosedAdaptive;
            }),
            with(|c| {
                c.scheduler_buffer = SchedulerBuffer::Bankwise;
                c.arbiter = Arbiter::Simple;
                c.request_buffer_size = 8;
                c.max_active_transactions = 64;
                c.refresh_policy = RefreshPolicy::NoRefresh;
            }),
        ];
        for wl in DramWorkload::ALL {
            let tr = trace(wl, 21);
            for cfg in &configs {
                let controller = MemoryController::new(cfg.clone());
                let oracle = controller.simulate_linear_scan(&tr);
                for kind in EngineKind::ALL {
                    assert_eq!(
                        controller.simulate_with(kind, &tr),
                        oracle,
                        "{} on {wl:?} / {cfg:?}",
                        kind.name()
                    );
                }
                // The default dispatch must agree with whatever it picks.
                assert_eq!(controller.simulate(&tr), oracle, "{wl:?} / {cfg:?}");
            }
        }
    }

    #[test]
    fn engine_equivalence_on_ddr4() {
        let tr = trace(DramWorkload::Cloud2, 22);
        let controller = MemoryController::new(with(|c| {
            c.scheduler_buffer = SchedulerBuffer::Bankwise;
            c.arbiter = Arbiter::Reorder;
        }))
        .timing(DeviceTiming::ddr4_2400());
        let oracle = controller.simulate_linear_scan(&tr);
        for kind in EngineKind::ALL {
            assert_eq!(
                controller.simulate_with(kind, &tr),
                oracle,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn engine_equivalence_on_multichannel_topologies() {
        // Same bit-identity requirement with the topology axes engaged:
        // every engine must agree on the merged multi-channel stats.
        let tr = trace(DramWorkload::Cloud1, 23);
        for (channels, ranks) in [(2, 1), (4, 1), (1, 2), (2, 2)] {
            let controller = MemoryController::new(ControllerConfig::default())
                .topology(Topology::new(channels, ranks));
            let oracle = controller.simulate_linear_scan(&tr);
            for kind in EngineKind::ALL {
                assert_eq!(
                    controller.simulate_with(kind, &tr),
                    oracle,
                    "{} on {channels}ch x {ranks}rk",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn shapes_beyond_the_soa_limits_fall_back_to_the_reference_engine() {
        // No bundled env space reaches these shapes: > 32 buffer slots,
        // or DDR4's 16 banks × 8 ranks = 128 > 64 bank lanes. Dispatch
        // must stay total and exact there. The largest shape that still
        // fits (64 banks, 32 slots) must keep the SoA engine.
        let tr = trace(DramWorkload::Cloud2, 26);
        let oversized = [
            MemoryController::new(with(|c| c.request_buffer_size = 48)),
            MemoryController::new(ControllerConfig::default())
                .timing(DeviceTiming::ddr4_2400())
                .topology(Topology::new(1, 8)),
        ];
        for controller in &oversized {
            assert_eq!(controller.default_engine(), EngineKind::Reference);
            let oracle = controller.simulate_linear_scan(&tr);
            assert_eq!(controller.simulate(&tr), oracle);
            assert_eq!(controller.simulate_with(EngineKind::Soa, &tr), oracle);
        }
        let widest = MemoryController::new(with(|c| c.request_buffer_size = 32))
            .topology(Topology::new(1, 8));
        assert_eq!(widest.default_engine(), EngineKind::Soa);
        assert_eq!(widest.simulate(&tr), widest.simulate_linear_scan(&tr));
    }

    #[test]
    fn ranks_multiply_the_visible_bank_count() {
        // Two ranks double the banks one channel's controller schedules
        // across; a random trace then spreads over 16 banks instead of 8
        // and bank-level parallelism improves latency (never hurts).
        let tr = trace(DramWorkload::Random, 24);
        let single = MemoryController::new(ControllerConfig::default()).simulate(&tr);
        let dual = MemoryController::new(ControllerConfig::default())
            .topology(Topology::new(1, 2))
            .simulate(&tr);
        assert_eq!(
            dual.counts.reads + dual.counts.writes,
            single.counts.reads + single.counts.writes
        );
        assert!(
            dual.avg_latency_ns <= single.avg_latency_ns * 1.02,
            "dual-rank {} vs single-rank {}",
            dual.avg_latency_ns,
            single.avg_latency_ns
        );
    }

    #[test]
    fn multichannel_simulation_equals_independent_channel_simulations() {
        // A channel is a fully independent lane: simulating the whole
        // trace on N channels must give each request the same completion
        // accounting as simulating that channel's partition alone on a
        // single-channel controller.
        let tr = trace(DramWorkload::Cloud2, 25);
        let topo = Topology::new(4, 1);
        let whole = MemoryController::new(ControllerConfig::default())
            .topology(topo)
            .simulate(&tr);

        let single = MemoryController::new(ControllerConfig::default());
        let mut counts = OpCounts::default();
        let mut hits = 0u64;
        let mut total_cycles = 0u64;
        let mut energy = 0.0f64;
        for ch in 0..topo.channels {
            let part: Vec<MemoryRequest> = tr
                .iter()
                .copied()
                .filter(|r| topo.channel_of(r.addr) == ch)
                .collect();
            if part.is_empty() {
                continue;
            }
            let stats = single.simulate(&part);
            counts.add(&stats.counts);
            hits += stats.row_hits;
            total_cycles = total_cycles.max(stats.total_cycles);
            energy += stats.energy_uj;
        }
        assert_eq!(whole.counts, counts);
        assert_eq!(whole.row_hits, hits);
        assert_eq!(whole.total_cycles, total_cycles);
        assert_eq!(whole.energy_uj, energy);
    }

    #[test]
    fn latency_stats_are_exact_order_statistics() {
        // avg is the exact integer-sum mean; p95 is the order statistic
        // at index floor((n-1) * 0.95) of the sorted diffs.
        let mut diffs: Vec<u64> = (1..=100u64).rev().collect();
        let total = diffs.iter().map(|&d| u128::from(d)).sum();
        let (avg, p95) = latency_stats(total, &mut diffs, 2.0);
        assert_eq!(avg, 5050.0 * 2.0 / 100.0);
        assert_eq!(p95, 95.0 * 2.0); // index 94 of sorted 1..=100
        let mut one = vec![7u64];
        let (avg, p95) = latency_stats(7, &mut one, 0.5);
        assert_eq!(avg, 3.5);
        assert_eq!(p95, 3.5);
    }

    fn arbitrary_config(seed: u64) -> ControllerConfig {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        ControllerConfig {
            refresh_max_postponed: rng.gen_range(1..=8),
            refresh_max_pulled_in: rng.gen_range(1..=8),
            request_buffer_size: rng.gen_range(1..=8),
            max_active_transactions: 1usize << rng.gen_range(0..=7u32),
            page_policy: PagePolicy::ALL[rng.gen_range(0..4usize)],
            scheduler: Scheduler::ALL[rng.gen_range(0..3usize)],
            scheduler_buffer: SchedulerBuffer::ALL[rng.gen_range(0..3usize)],
            arbiter: Arbiter::ALL[rng.gen_range(0..3usize)],
            resp_queue: RespQueue::ALL[rng.gen_range(0..2usize)],
            refresh_policy: RefreshPolicy::ALL[rng.gen_range(0..2usize)],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_any_config_completes_with_sane_stats(cfg_seed in 0u64..5000, wl_idx in 0usize..4) {
            let cfg = arbitrary_config(cfg_seed);
            let tr = generate(
                DramWorkload::ALL[wl_idx],
                &TraceConfig { length: 200, ..TraceConfig::default() },
                &mut seeded_rng(cfg_seed),
            );
            let stats = MemoryController::new(cfg).simulate(&tr);
            prop_assert_eq!(stats.counts.reads + stats.counts.writes, 200);
            prop_assert!(stats.avg_latency_ns.is_finite() && stats.avg_latency_ns > 0.0);
            prop_assert!(stats.p95_latency_ns >= stats.avg_latency_ns * 0.2);
            prop_assert!(stats.power_w > 0.1 && stats.power_w < 20.0);
            prop_assert!(stats.energy_uj > 0.0);
        }

        #[test]
        fn prop_engine_equivalence_any_config(cfg_seed in 0u64..5000, wl_idx in 0usize..4) {
            let cfg = arbitrary_config(cfg_seed);
            let tr = generate(
                DramWorkload::ALL[wl_idx],
                &TraceConfig { length: 200, ..TraceConfig::default() },
                &mut seeded_rng(cfg_seed.wrapping_mul(31).wrapping_add(7)),
            );
            let controller = MemoryController::new(cfg);
            let oracle = controller.simulate_linear_scan(&tr);
            for kind in EngineKind::ALL {
                prop_assert_eq!(&controller.simulate_with(kind, &tr), &oracle, "{}", kind.name());
            }
        }

        #[test]
        fn prop_engine_equivalence_multichannel(
            cfg_seed in 0u64..5000,
            wl_idx in 0usize..4,
            ch_pow in 1u32..3,
            rk_pow in 0u32..2,
        ) {
            let cfg = arbitrary_config(cfg_seed);
            let tr = generate(
                DramWorkload::ALL[wl_idx],
                &TraceConfig { length: 200, ..TraceConfig::default() },
                &mut seeded_rng(cfg_seed.wrapping_mul(17).wrapping_add(3)),
            );
            let controller = MemoryController::new(cfg)
                .topology(Topology::new(1 << ch_pow, 1 << rk_pow));
            let oracle = controller.simulate_linear_scan(&tr);
            for kind in EngineKind::ALL {
                prop_assert_eq!(&controller.simulate_with(kind, &tr), &oracle, "{}", kind.name());
            }
        }

        #[test]
        fn prop_multichannel_conserves_work_and_energy(
            cfg_seed in 0u64..5000,
            wl_idx in 0usize..4,
            ch_pow in 1u32..3,
        ) {
            // Conservation invariants: the N-channel simulation is the
            // exact union of N independent single-channel simulations of
            // the address-partitioned trace — integer counters sum
            // exactly, cycles take the max, energy sums bit-exactly
            // (channel-order accumulation), and mean latency matches up
            // to float re-association across the merge.
            let cfg = arbitrary_config(cfg_seed);
            let topo = Topology::new(1 << ch_pow, 1);
            let tr = generate(
                DramWorkload::ALL[wl_idx],
                &TraceConfig { length: 200, ..TraceConfig::default() },
                &mut seeded_rng(cfg_seed.wrapping_mul(13).wrapping_add(11)),
            );
            let whole = MemoryController::new(cfg.clone()).topology(topo).simulate(&tr);
            let single = MemoryController::new(cfg);

            let mut counts = OpCounts::default();
            let mut hits = 0u64;
            let mut misses = 0u64;
            let mut conflicts = 0u64;
            let mut total_cycles = 0u64;
            let mut energy = 0.0f64;
            let mut latency_weighted = 0.0f64;
            let mut served = 0usize;
            for ch in 0..topo.channels {
                let part: Vec<MemoryRequest> = tr
                    .iter()
                    .copied()
                    .filter(|r| topo.channel_of(r.addr) == ch)
                    .collect();
                if part.is_empty() {
                    continue;
                }
                let stats = single.simulate(&part);
                counts.add(&stats.counts);
                hits += stats.row_hits;
                misses += stats.row_misses;
                conflicts += stats.row_conflicts;
                total_cycles = total_cycles.max(stats.total_cycles);
                energy += stats.energy_uj;
                latency_weighted += stats.avg_latency_ns * part.len() as f64;
                served += part.len();
            }
            prop_assert_eq!(whole.counts, counts);
            prop_assert_eq!(whole.row_hits, hits);
            prop_assert_eq!(whole.row_misses, misses);
            prop_assert_eq!(whole.row_conflicts, conflicts);
            prop_assert_eq!(whole.total_cycles, total_cycles);
            prop_assert_eq!(whole.energy_uj, energy);
            prop_assert_eq!(served, tr.len());
            let merged_avg = latency_weighted / served as f64;
            prop_assert!(
                (whole.avg_latency_ns - merged_avg).abs() <= merged_avg.abs() * 1e-9 + 1e-9,
                "avg latency diverged: {} vs {}", whole.avg_latency_ns, merged_avg
            );
        }
    }
}
