//! [`DramEnv`] — the DRAMGym environment.
//!
//! Wraps the memory-controller simulator behind the standardized ArchGym
//! interface: actions are points of the Fig. 3(a) space, observations are
//! `<latency, power, energy>`, and the reward follows Table 3's
//! `r_x = X_target / |X_target − X_obs|` formulation.

use crate::controller::{
    Arbiter, ControllerConfig, MemoryController, PagePolicy, RefreshPolicy, RespQueue, Scheduler,
    SchedulerBuffer, SimStats,
};
use crate::device::Topology;
use crate::engine::Witness;
use crate::trace::{generate, DramWorkload, MemoryRequest, TraceConfig};
use archgym_core::env::{Environment, Observation, StepResult, TwinSet};
use archgym_core::reward::RewardSpec;
use archgym_core::seeded_rng;
use archgym_core::space::{Action, ParamSpace, ParamValue};
use archgym_core::telemetry::{Counter, Phase, Recorder};
use std::sync::{Arc, OnceLock};

/// Observation metric indices for DRAMGym.
pub mod metric {
    /// Mean request latency in nanoseconds.
    pub const LATENCY: usize = 0;
    /// Average power in watts.
    pub const POWER: usize = 1;
    /// Total energy in microjoules.
    pub const ENERGY: usize = 2;
}

/// Build the ten-dimensional DRAM memory-controller space of Fig. 3(a).
///
/// Three dimensions are inert in part of this space, and
/// [`DramEnv`]'s [`Environment::canonical`] maps their twins to index 0:
///
/// * `RefreshMaxPulledIn` has no effect anywhere in this model: refresh
///   debt never goes negative, so the pull-in bound never blocks a
///   refresh (see [`ControllerConfig::refresh_max_pulled_in`]). Making it
///   live would change every DRAM result and both goldens, and would
///   fail the `canonical` proptests in this module, which pin the rule.
/// * `RefreshMaxPostponed` is read only under `RefreshPolicy::AllBank`.
/// * `SchedulerBuffer` cannot change the pick when `RequestBufferSize`
///   is 1: the one buffered request is the only candidate.
///
/// None of the three enters the power model.
///
/// ```
/// let space = archgym_dram::dram_space();
/// assert_eq!(space.len(), 10);
/// assert_eq!(space.cardinality(), 1_769_472.0);
/// ```
pub fn dram_space() -> ParamSpace {
    ParamSpace::builder()
        .int("RefreshMaxPostponed", 1, 8, 1)
        .int("RefreshMaxPulledIn", 1, 8, 1)
        .int("RequestBufferSize", 1, 8, 1)
        .pow2("MaxActiveTransactions", 1, 128)
        .categorical(
            "PagePolicy",
            ["Open", "OpenAdaptive", "Closed", "ClosedAdaptive"],
        )
        .categorical("Scheduler", ["Fifo", "FrFcfsGrp", "FrFcfs"])
        .categorical("SchedulerBuffer", ["Bankwise", "ReadWrite", "Shared"])
        .categorical("Arbiter", ["Simple", "Fifo", "Reorder"])
        .categorical("RespQueue", ["Fifo", "Reorder"])
        .categorical("RefreshPolicy", ["NoRefresh", "AllBank"])
        .build()
        .expect("static space definition is valid")
}

/// Build the widened twelve-dimensional space: Fig. 3(a)'s ten controller
/// parameters plus the channel/rank topology axes of the multi-channel
/// engine.
///
/// ```
/// let space = archgym_dram::dram_space_extended();
/// assert_eq!(space.len(), 12);
/// assert_eq!(space.cardinality(), 10_616_832.0);
/// ```
pub fn dram_space_extended() -> ParamSpace {
    ParamSpace::builder()
        .int("RefreshMaxPostponed", 1, 8, 1)
        .int("RefreshMaxPulledIn", 1, 8, 1)
        .int("RequestBufferSize", 1, 8, 1)
        .pow2("MaxActiveTransactions", 1, 128)
        .categorical(
            "PagePolicy",
            ["Open", "OpenAdaptive", "Closed", "ClosedAdaptive"],
        )
        .categorical("Scheduler", ["Fifo", "FrFcfsGrp", "FrFcfs"])
        .categorical("SchedulerBuffer", ["Bankwise", "ReadWrite", "Shared"])
        .categorical("Arbiter", ["Simple", "Fifo", "Reorder"])
        .categorical("RespQueue", ["Fifo", "Reorder"])
        .categorical("RefreshPolicy", ["NoRefresh", "AllBank"])
        .pow2("Channels", 1, 4)
        .pow2("Ranks", 1, 2)
        .build()
        .expect("static space definition is valid")
}

/// Decode the channel/rank topology from an action, if the space carries
/// the extended axes; the plain Fig. 3(a) space maps to the
/// single-channel, single-rank baseline.
pub fn decode_topology(space: &ParamSpace, action: &Action) -> Topology {
    if space.dim_of("Channels").is_none() {
        return Topology::single();
    }
    let int = |name: &str| space.decode_one(action, name).as_int().unwrap();
    Topology::new(int("Channels") as usize, int("Ranks") as usize)
}

/// Decode a DRAMGym action into a [`ControllerConfig`].
///
/// # Panics
///
/// Panics if `action` does not validate against [`dram_space`].
pub fn decode_config(space: &ParamSpace, action: &Action) -> ControllerConfig {
    space.validate(action).expect("action fits the DRAM space");
    let int = |name: &str| space.decode_one(action, name).as_int().unwrap();
    let idx = |name: &str| action.index(space.dim_of(name).unwrap());
    ControllerConfig {
        refresh_max_postponed: int("RefreshMaxPostponed") as u32,
        refresh_max_pulled_in: int("RefreshMaxPulledIn") as u32,
        request_buffer_size: int("RequestBufferSize") as usize,
        max_active_transactions: int("MaxActiveTransactions") as usize,
        page_policy: PagePolicy::ALL[idx("PagePolicy")],
        scheduler: Scheduler::ALL[idx("Scheduler")],
        scheduler_buffer: SchedulerBuffer::ALL[idx("SchedulerBuffer")],
        arbiter: Arbiter::ALL[idx("Arbiter")],
        resp_queue: RespQueue::ALL[idx("RespQueue")],
        refresh_policy: RefreshPolicy::ALL[idx("RefreshPolicy")],
    }
}

/// A DRAMGym optimization objective (the three targets of Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    name: String,
    spec: RewardSpec,
}

impl Objective {
    /// Target a power envelope of `watts` (Fig. 4 "low power"; Table 4
    /// uses a 1 W goal).
    pub fn low_power(watts: f64) -> Self {
        Objective {
            name: format!("low-power({watts}W)"),
            spec: RewardSpec::TargetRatio {
                terms: vec![(metric::POWER, watts)],
            },
        }
    }

    /// Target a mean latency of `ns` (Fig. 4 "low latency").
    pub fn low_latency(ns: f64) -> Self {
        Objective {
            name: format!("low-latency({ns}ns)"),
            spec: RewardSpec::TargetRatio {
                terms: vec![(metric::LATENCY, ns)],
            },
        }
    }

    /// Jointly target latency and power (Fig. 4 "latency & power").
    pub fn joint(latency_ns: f64, power_w: f64) -> Self {
        Objective {
            name: format!("joint({latency_ns}ns,{power_w}W)"),
            spec: RewardSpec::TargetRatio {
                terms: vec![(metric::LATENCY, latency_ns), (metric::POWER, power_w)],
            },
        }
    }

    /// The objective's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying reward formulation.
    pub fn spec(&self) -> &RewardSpec {
        &self.spec
    }
}

/// A dimension that is inert where `when` holds (everywhere for
/// `None`): `when = Some((dim, index))` means "while `dim` is at
/// `index`". Resolved once per space, so canonicalizing an action
/// searches no names.
#[derive(Debug, Clone, Copy)]
struct InertDim {
    dim: usize,
    cardinality: usize,
    when: Option<(usize, usize)>,
}

impl InertDim {
    /// Whether `indices` has a non-canonical, in-range index in this
    /// dimension where it is inert. An out-of-range index is left alone,
    /// so an invalid action still reaches `step` and fails there.
    fn applies(&self, indices: &[usize]) -> bool {
        let index = indices[self.dim];
        0 < index
            && index < self.cardinality
            && self.when.is_none_or(|(dim, at)| indices[dim] == at)
    }
}

/// The rules of [`dram_space`]'s docs, resolved against `space` (either
/// DRAM space: both carry the ten controller dimensions).
fn inert_dims(space: &ParamSpace) -> [InertDim; 3] {
    let dim = |name: &str| {
        space
            .dim_of(name)
            .expect("the DRAM space has every controller dimension")
    };
    let inert = |name: &str, when: Option<(usize, usize)>| InertDim {
        dim: dim(name),
        cardinality: space.params()[dim(name)].domain().cardinality(),
        when,
    };
    let index_of = |name: &str, value: ParamValue| {
        space.params()[dim(name)]
            .domain()
            .index_of(&value)
            .expect("the DRAM space holds the value")
    };
    let no_refresh = index_of("RefreshPolicy", ParamValue::Cat("NoRefresh".into()));
    let single_buffer = index_of("RequestBufferSize", ParamValue::Int(1));
    [
        inert("RefreshMaxPulledIn", None),
        inert(
            "RefreshMaxPostponed",
            Some((dim("RefreshPolicy"), no_refresh)),
        ),
        inert(
            "SchedulerBuffer",
            Some((dim("RequestBufferSize"), single_buffer)),
        ),
    ]
}

/// The dimensions a witnessed run can free, resolved once per space (see
/// [`DramEnv`]'s [`Environment::try_step_with_twins`]). The categorical
/// dimensions index their enum's `ALL` order, as [`decode_config`] does.
#[derive(Debug, Clone)]
struct TwinDims {
    postponed: usize,
    pulled_in: usize,
    page_policy: usize,
    scheduler_buffer: usize,
    refresh_policy: usize,
    /// `RefreshMaxPostponed`'s value at each index.
    postponed_values: Vec<i64>,
    /// `RefreshMaxPulledIn`'s cardinality.
    pulled_in_cardinality: usize,
}

impl TwinDims {
    fn of(space: &ParamSpace) -> Self {
        let dim = |name: &str| {
            space
                .dim_of(name)
                .expect("the DRAM space has every controller dimension")
        };
        let domain = |name: &str| space.params()[dim(name)].domain();
        let postponed = domain("RefreshMaxPostponed");
        TwinDims {
            postponed: dim("RefreshMaxPostponed"),
            pulled_in: dim("RefreshMaxPulledIn"),
            page_policy: dim("PagePolicy"),
            scheduler_buffer: dim("SchedulerBuffer"),
            refresh_policy: dim("RefreshPolicy"),
            postponed_values: (0..postponed.cardinality())
                .map(|i| postponed.value(i).as_int().expect("an integer dimension"))
                .collect(),
            pulled_in_cardinality: domain("RefreshMaxPulledIn").cardinality(),
        }
    }

    /// The twin set of `action`, stepped as `config`, from its run's
    /// witness and refresh count. Five rules widen it; every other
    /// dimension enters the engine's decisions or the power model, so it
    /// stays exact:
    ///
    /// 1. `RefreshMaxPulledIn`: every index (it is inert).
    /// 2. `RefreshMaxPostponed` under `AllBank`: every value that falls
    ///    on the same side of each postpone test as the stepped one.
    /// 3. `RefreshPolicy`: an `AllBank` run that never refreshed also
    ///    answers `NoRefresh`. A `NoRefresh` run whose shadow `AllBank`
    ///    controller would never have refreshed (no opportunity, debt
    ///    never above the bound) answers `AllBank` too, but only where
    ///    that holds for every `RefreshMaxPostponed` value: the set is a
    ///    product, and a `NoRefresh` run keeps every value of that
    ///    dimension, as [`Environment::canonical`]'s rule does.
    /// 4. `SchedulerBuffer`: a run that behaves as `Shared` (it is
    ///    `Shared`, or `Bankwise` that always saw one bank, or
    ///    `ReadWrite` that never hid a write) answers `Shared`, plus
    ///    `Bankwise` if every pick saw one bank and `ReadWrite` if no
    ///    pick saw reads and writes together. Otherwise only itself.
    /// 5. `PagePolicy`: `OpenAdaptive` and `ClosedAdaptive` answer each
    ///    other if no EWMA at a page decision fell in (0.25, 0.75].
    fn twins(
        &self,
        action: &Action,
        config: &ControllerConfig,
        witness: &Witness,
        refreshes: u64,
    ) -> TwinSet {
        fn bit<T: PartialEq>(all: &[T], value: T) -> u64 {
            1 << all
                .iter()
                .position(|v| *v == value)
                .expect("every variant is in ALL")
        }
        let when = |holds: bool, mask: u64| if holds { mask } else { 0 };
        let postponed_where = |keep: &dyn Fn(i64) -> bool| -> u64 {
            self.postponed_values
                .iter()
                .enumerate()
                .filter(|&(_, &p)| keep(p))
                .fold(0, |mask, (i, _)| mask | 1 << i)
        };
        let refresh = |policy| bit(&RefreshPolicy::ALL, policy);
        let (postponed, refresh) = match config.refresh_policy {
            RefreshPolicy::AllBank => {
                let (lo, hi) = (witness.max_unforced_debt, witness.min_forced_debt);
                let silent = when(refreshes == 0, refresh(RefreshPolicy::NoRefresh));
                (
                    postponed_where(&|p| lo <= p && p < hi),
                    refresh(RefreshPolicy::AllBank) | silent,
                )
            }
            RefreshPolicy::NoRefresh => {
                let never = !witness.shadow_opportunity
                    && self
                        .postponed_values
                        .iter()
                        .all(|&p| p >= witness.shadow_debt);
                (
                    postponed_where(&|_| true),
                    refresh(RefreshPolicy::NoRefresh)
                        | when(never, refresh(RefreshPolicy::AllBank)),
                )
            }
        };
        let page = bit(&PagePolicy::ALL, config.page_policy);
        let adaptive = bit(&PagePolicy::ALL, PagePolicy::OpenAdaptive)
            | bit(&PagePolicy::ALL, PagePolicy::ClosedAdaptive);
        let page = page | when(page & adaptive != 0 && !witness.ewma_between, adaptive);
        let buffer = |org| bit(&SchedulerBuffer::ALL, org);
        let shared_alike = match config.scheduler_buffer {
            SchedulerBuffer::Shared => true,
            SchedulerBuffer::Bankwise => !witness.multi_bank,
            SchedulerBuffer::ReadWrite => !witness.mixed,
        };
        let scheduler_buffer = if shared_alike {
            buffer(SchedulerBuffer::Shared)
                | when(!witness.multi_bank, buffer(SchedulerBuffer::Bankwise))
                | when(!witness.mixed, buffer(SchedulerBuffer::ReadWrite))
        } else {
            buffer(config.scheduler_buffer)
        };
        TwinSet::new(
            action.clone(),
            [
                (self.postponed, postponed),
                (self.pulled_in, (1 << self.pulled_in_cardinality) - 1),
                (self.page_policy, page),
                (self.scheduler_buffer, scheduler_buffer),
                (self.refresh_policy, refresh),
            ],
        )
    }
}

/// The DRAMGym environment: one workload trace + one objective.
#[derive(Debug, Clone)]
pub struct DramEnv {
    space: ParamSpace,
    /// `space`'s inert dimensions, for [`Environment::canonical`].
    inert: [InertDim; 3],
    /// `space`'s dimensions a witnessed run can free.
    twin_dims: Arc<TwinDims>,
    workload: DramWorkload,
    objective: Objective,
    /// Shared, immutable: cloning the env (one clone per `Executor`
    /// worker in a sweep) bumps a refcount instead of deep-copying the
    /// trace.
    trace: Arc<[MemoryRequest]>,
    name: String,
    /// Run telemetry sink; a disabled no-op recorder until the search
    /// loop installs a live one via [`Environment::set_telemetry`].
    telemetry: Recorder,
}

/// The canonical trace of each workload (default [`TraceConfig`], fixed
/// seed), generated once per process and shared by every env built from
/// it — parallel sweep workers all point at the same allocation.
fn canonical_trace(workload: DramWorkload) -> Arc<[MemoryRequest]> {
    static CACHE: [OnceLock<Arc<[MemoryRequest]>>; DramWorkload::ALL.len()] =
        [const { OnceLock::new() }; DramWorkload::ALL.len()];
    let slot = DramWorkload::ALL
        .iter()
        .position(|w| *w == workload)
        .expect("every workload is in ALL");
    CACHE[slot]
        .get_or_init(|| generate(workload, &TraceConfig::default(), &mut seeded_rng(0xD7A3)).into())
        .clone()
}

impl DramEnv {
    /// Create an environment with the default trace configuration and the
    /// canonical trace seed (so every agent optimizes the *same* trace).
    pub fn new(workload: DramWorkload, objective: Objective) -> Self {
        Self::with_trace_config(workload, objective, &TraceConfig::default())
    }

    /// Create an environment with a custom trace configuration (length,
    /// footprint, arrival intensity).
    pub fn with_trace_config(
        workload: DramWorkload,
        objective: Objective,
        config: &TraceConfig,
    ) -> Self {
        // The trace seed is fixed: the workload is part of the problem
        // statement, not of the agent's stochasticity.
        let trace = if *config == TraceConfig::default() {
            canonical_trace(workload)
        } else {
            generate(workload, config, &mut seeded_rng(0xD7A3)).into()
        };
        let space = dram_space();
        DramEnv {
            inert: inert_dims(&space),
            twin_dims: Arc::new(TwinDims::of(&space)),
            space,
            workload,
            objective,
            trace,
            name: format!("dram/{}", workload.name()),
            telemetry: Recorder::default(),
        }
    }

    /// Create an environment over the widened [`dram_space_extended`]
    /// design space (Fig. 3(a) plus channel/rank topology axes). The
    /// environment is named `dramx/<workload>` to keep result histories
    /// from the two spaces separate.
    pub fn extended(workload: DramWorkload, objective: Objective) -> Self {
        let mut env = Self::new(workload, objective);
        env.space = dram_space_extended();
        env.inert = inert_dims(&env.space);
        env.twin_dims = Arc::new(TwinDims::of(&env.space));
        env.name = format!("dramx/{}", workload.name());
        env
    }

    /// Create an environment around an explicit trace (e.g. one loaded
    /// with [`crate::trace::read_trace`] from a real application's memory
    /// trace file).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn with_trace(label: &str, trace: Vec<MemoryRequest>, objective: Objective) -> Self {
        assert!(
            !trace.is_empty(),
            "cannot build an environment around an empty trace"
        );
        let space = dram_space();
        DramEnv {
            inert: inert_dims(&space),
            twin_dims: Arc::new(TwinDims::of(&space)),
            space,
            workload: DramWorkload::Random, // nominal; the trace is custom
            objective,
            trace: trace.into(),
            name: format!("dram/{label}"),
            telemetry: Recorder::default(),
        }
    }

    /// The memory trace this environment simulates against.
    pub fn trace(&self) -> &[MemoryRequest] {
        &self.trace
    }

    /// The workload this environment evaluates.
    pub fn workload(&self) -> DramWorkload {
        self.workload
    }

    /// The optimization objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Evaluate a raw controller configuration, bypassing action encoding.
    pub fn evaluate_config(&self, config: ControllerConfig) -> crate::controller::SimStats {
        MemoryController::new(config).simulate(&self.trace)
    }

    /// The controller `action` configures.
    fn controller(&self, action: &Action) -> MemoryController {
        let config = decode_config(&self.space, action);
        let topology = decode_topology(&self.space, action);
        MemoryController::new(config).topology(topology)
    }

    /// Count a simulation's row-buffer outcomes into telemetry and build
    /// its step result.
    fn report(&self, stats: &SimStats) -> StepResult {
        self.telemetry.add(Counter::DramRowHits, stats.row_hits);
        self.telemetry.add(Counter::DramRowMisses, stats.row_misses);
        self.telemetry
            .add(Counter::DramRowConflicts, stats.row_conflicts);
        self.telemetry.add(
            Counter::DramDecisions,
            stats.row_hits + stats.row_misses + stats.row_conflicts,
        );
        let observation =
            Observation::new(vec![stats.avg_latency_ns, stats.power_w, stats.energy_uj]);
        let reward = self.objective.spec.reward(&observation);
        StepResult::terminal(observation, reward)
            .with_info("row_hit_rate", stats.hit_rate())
            .with_info("total_cycles", stats.total_cycles as f64)
            .with_info("p95_latency_ns", stats.p95_latency_ns)
    }
}

impl Environment for DramEnv {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn observation_labels(&self) -> Vec<String> {
        vec!["latency_ns".into(), "power_w".into(), "energy_uj".into()]
    }

    fn step(&mut self, action: &Action) -> StepResult {
        let controller = self.controller(action);
        let stats = {
            let _span = self.telemetry.span(Phase::Simulate);
            controller.simulate(&self.trace)
        };
        self.report(&stats)
    }

    /// A single-channel SoA run reports the twin set its witness proves
    /// (the rules are listed on `TwinDims::twins`); multi-channel
    /// topologies and reference-engine fallbacks report none.
    fn try_step_with_twins(
        &mut self,
        action: &Action,
    ) -> archgym_core::Result<(StepResult, Option<TwinSet>)> {
        let controller = self.controller(action);
        let (stats, witness) = {
            let _span = self.telemetry.span(Phase::Simulate);
            controller.simulate_witnessed(&self.trace)
        };
        let twins = witness.map(|witness| {
            self.twin_dims.twins(
                action,
                controller.config(),
                &witness,
                stats.counts.refreshes,
            )
        });
        Ok((self.report(&stats), twins))
    }

    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.telemetry = recorder.clone();
    }

    /// Sets each dimension that is inert in `action`'s part of the space
    /// to index 0 (the rules are listed on [`dram_space`]), or returns
    /// `None`, without allocating, when none applies.
    fn canonical(&self, action: &Action) -> Option<Action> {
        let indices = action.as_slice();
        if indices.len() != self.space.len() || !self.inert.iter().any(|r| r.applies(indices)) {
            return None;
        }
        let mut canonical = indices.to_vec();
        for rule in self.inert.iter().filter(|r| r.applies(indices)) {
            canonical[rule.dim] = 0;
        }
        Some(Action::new(canonical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::agent::RandomWalker;
    use archgym_core::cache::{CachedEnv, EvalCache};
    use archgym_core::env::CloneEnvironment;
    use archgym_core::search::{RunConfig, SearchLoop};
    use proptest::prelude::*;

    #[test]
    fn space_matches_fig3a() {
        let space = dram_space();
        assert_eq!(space.len(), 10);
        let cards = space.cardinalities();
        assert_eq!(cards, vec![8, 8, 8, 8, 4, 3, 3, 3, 2, 2]);
        // The exact product of Fig. 3(a)'s domains. The paper reports
        // "1.9e7", which corresponds to counting MaxActiveTransactions
        // linearly; we implement the printed (1, 128, 2^x) domain.
        assert_eq!(space.cardinality(), 1_769_472.0);
    }

    #[test]
    fn extended_space_widens_fig3a_with_topology_axes() {
        let space = dram_space_extended();
        assert_eq!(space.len(), 12);
        let cards = space.cardinalities();
        assert_eq!(cards, vec![8, 8, 8, 8, 4, 3, 3, 3, 2, 2, 3, 2]);
        // Fig. 3(a)'s 1,769,472 designs × 3 channel options × 2 rank
        // options.
        assert_eq!(space.cardinality(), 10_616_832.0);
        // The original space is untouched.
        assert_eq!(dram_space().cardinality(), 1_769_472.0);
    }

    #[test]
    fn decode_topology_defaults_to_single_on_plain_space() {
        let space = dram_space();
        let action = Action::new(vec![0; 10]);
        assert_eq!(decode_topology(&space, &action), Topology::single());
    }

    #[test]
    fn extended_env_baseline_action_matches_plain_env() {
        // Appending the topology axes at their baseline (1 channel,
        // 1 rank) must not change any observation: the extended space
        // strictly contains Fig. 3(a).
        let objective = Objective::joint(30.0, 1.0);
        let mut plain = DramEnv::new(DramWorkload::Cloud1, objective.clone());
        let mut extended = DramEnv::extended(DramWorkload::Cloud1, objective);
        assert_eq!(extended.name(), "dramx/cloud-1");
        let mut rng = seeded_rng(41);
        for _ in 0..8 {
            let base = plain.space().sample(&mut rng);
            let mut widened = base.clone().into_inner();
            widened.extend([0, 0]); // Channels = 1, Ranks = 1
            assert_eq!(plain.step(&base), extended.step(&Action::new(widened)));
        }
    }

    #[test]
    fn extended_env_steps_multichannel_points() {
        let mut env = DramEnv::extended(DramWorkload::Stream, Objective::low_power(1.0));
        let mut rng = seeded_rng(42);
        for _ in 0..8 {
            let action = env.space().sample(&mut rng);
            let topo = decode_topology(env.space(), &action);
            let result = env.step(&action);
            assert_eq!(result.observation.len(), 3);
            assert!(result.reward > 0.0, "{topo:?}");
        }
    }

    #[test]
    fn decode_config_maps_every_dimension() {
        let space = dram_space();
        let action = Action::new(vec![3, 7, 0, 5, 1, 2, 0, 2, 1, 0]);
        let cfg = decode_config(&space, &action);
        assert_eq!(cfg.refresh_max_postponed, 4);
        assert_eq!(cfg.refresh_max_pulled_in, 8);
        assert_eq!(cfg.request_buffer_size, 1);
        assert_eq!(cfg.max_active_transactions, 32);
        assert_eq!(cfg.page_policy, PagePolicy::OpenAdaptive);
        assert_eq!(cfg.scheduler, Scheduler::FrFcfs);
        assert_eq!(cfg.scheduler_buffer, SchedulerBuffer::Bankwise);
        assert_eq!(cfg.arbiter, Arbiter::Reorder);
        assert_eq!(cfg.resp_queue, RespQueue::Reorder);
        assert_eq!(cfg.refresh_policy, RefreshPolicy::NoRefresh);
    }

    #[test]
    #[should_panic(expected = "action fits the DRAM space")]
    fn decode_rejects_invalid_action() {
        let space = dram_space();
        let _ = decode_config(&space, &Action::new(vec![0; 3]));
    }

    #[test]
    fn step_reports_three_metrics_and_positive_reward() {
        let mut env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
        let mut rng = seeded_rng(4);
        let action = env.space().sample(&mut rng);
        let result = env.step(&action);
        assert_eq!(result.observation.len(), 3);
        assert!(result.reward > 0.0);
        assert!(result.info.contains_key("row_hit_rate"));
        assert!(result.feasible);
    }

    #[test]
    fn same_action_same_result() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::low_latency(30.0));
        let action = Action::new(vec![0, 0, 3, 4, 0, 2, 2, 1, 1, 1]);
        let a = env.step(&action);
        let b = env.step(&action);
        assert_eq!(a, b);
    }

    #[test]
    fn objective_names_are_informative() {
        assert_eq!(Objective::low_power(1.0).name(), "low-power(1W)");
        assert_eq!(Objective::low_latency(30.0).name(), "low-latency(30ns)");
        assert!(Objective::joint(30.0, 1.0).name().starts_with("joint("));
    }

    #[test]
    fn random_search_improves_reward_toward_power_target() {
        let mut env = DramEnv::new(DramWorkload::Random, Objective::low_power(1.0));
        let mut agent = RandomWalker::new(env.space().clone(), 17);
        let result = SearchLoop::new(RunConfig::with_budget(40)).run(&mut agent, &mut env);
        // A configuration within 50% of the 1 W target exists and random
        // search over 40 designs should get at least that close.
        assert!(
            result.best_reward > 2.0,
            "best reward {} too low",
            result.best_reward
        );
        let power = result.best_observation[metric::POWER];
        assert!(
            (0.5..=1.5).contains(&power),
            "best power {power} far from target"
        );
    }

    #[test]
    fn cached_env_is_bit_identical_across_workloads() {
        for workload in DramWorkload::ALL {
            let objective = Objective::joint(30.0, 1.0);
            let mut plain = DramEnv::new(workload, objective.clone());
            let cache = Arc::new(EvalCache::new());
            let mut cached =
                CachedEnv::new(DramEnv::new(workload, objective.clone()), cache.clone());
            let mut rng = seeded_rng(99);
            let mut actions: Vec<Action> =
                (0..12).map(|_| plain.space().sample(&mut rng)).collect();
            // Replay every action a second time so the cached wrapper
            // must serve hits — those too must be bit-identical.
            actions.extend(actions.clone());
            for action in &actions {
                assert_eq!(
                    plain.step(action),
                    cached.step(action),
                    "{}",
                    workload.name()
                );
            }
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, 24, "{}", workload.name());
            assert!(stats.hits >= 12, "{}", workload.name());
        }
    }

    /// Everything a result carries, floats as their bits.
    type Bits = (Vec<u64>, u64, bool, bool, Vec<(String, u64)>);

    fn bits(result: &StepResult) -> Bits {
        (
            result
                .observation
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            result.reward.to_bits(),
            result.done,
            result.feasible,
            result
                .info
                .iter()
                .map(|(name, v)| (name.to_owned(), v.to_bits()))
                .collect(),
        )
    }

    /// A fixed mid-range, canonical design on the plain space: refresh
    /// on, a four-entry buffer, FR-FCFS, Fifo arbiter.
    fn fixed_design() -> Vec<usize> {
        vec![0, 0, 3, 4, 0, 2, 0, 1, 0, 1]
    }

    fn dim(name: &str) -> usize {
        dram_space().dim_of(name).unwrap()
    }

    /// Step `base` with `name` at every index. Where `name` is inert,
    /// every twin must be canonicalized to index 0 and step exactly as
    /// the canonical design does; returns how many indices stepped
    /// differently from index 0 otherwise.
    fn walk(env: &mut DramEnv, base: &[usize], name: &str) -> usize {
        let d = dim(name);
        let at = |i: usize| {
            let mut action = base.to_vec();
            action[d] = i;
            Action::new(action)
        };
        let canonical = bits(&env.step(&at(0)));
        let mut differing = 0;
        for i in 0..dram_space().cardinalities()[d] {
            let twin = at(i);
            let stepped = bits(&env.step(&twin));
            match env.canonical(&twin) {
                Some(c) => {
                    assert_eq!(c, at(0), "{name} = index {i}");
                    assert_eq!(stepped, canonical, "{name} = index {i}");
                }
                None => differing += usize::from(stepped != canonical),
            }
        }
        differing
    }

    #[test]
    fn canonical_rule_refresh_max_pulled_in_is_inert_everywhere() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        for refresh in [0, 1] {
            let mut base = fixed_design();
            base[dim("RefreshPolicy")] = refresh;
            assert_eq!(walk(&mut env, &base, "RefreshMaxPulledIn"), 0);
            base[dim("RefreshMaxPulledIn")] = 5;
            assert!(env.canonical(&Action::new(base)).is_some());
        }
    }

    #[test]
    fn canonical_rule_refresh_max_postponed_is_inert_without_refresh() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        let mut base = fixed_design();
        base[dim("RefreshPolicy")] = 0; // NoRefresh
        assert_eq!(walk(&mut env, &base, "RefreshMaxPostponed"), 0);
        // Under AllBank the bound is live: twins are kept apart, and on
        // a design slow enough to keep requests waiting across refresh
        // intervals some of them step differently.
        let slow = [0, 0, 3, 2, 1, 0, 1, 0, 1, 1];
        assert_eq!(slow[dim("RefreshPolicy")], 1);
        assert!(walk(&mut env, &slow, "RefreshMaxPostponed") > 0);
    }

    #[test]
    fn canonical_rule_scheduler_buffer_is_inert_with_one_buffer_entry() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        let mut base = fixed_design();
        base[dim("RequestBufferSize")] = 0; // one entry
        assert_eq!(walk(&mut env, &base, "SchedulerBuffer"), 0);
        // With two entries the organization can change the pick.
        base[dim("RequestBufferSize")] = 1;
        assert!(walk(&mut env, &base, "SchedulerBuffer") > 0);
    }

    #[test]
    fn canonical_leaves_out_of_range_indices_to_step() {
        let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
        let mut invalid = fixed_design();
        invalid[dim("RefreshMaxPulledIn")] = 8;
        assert_eq!(env.canonical(&Action::new(invalid)), None);
        assert_eq!(env.canonical(&Action::new(vec![1; 3])), None);
    }

    /// A random DRAM objective: power, latency or both.
    fn objective(kind: usize, target: f64) -> Objective {
        match kind {
            0 => Objective::low_power(target / 40.0),
            1 => Objective::low_latency(target),
            _ => Objective::joint(target, target / 40.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_canonical_twins_step_bit_identically(
            seed in 0u64..u64::MAX,
            wl in 0usize..4,
            extended in any::<bool>(),
            kind in 0usize..3,
            target in 5.0f64..120.0,
            one_entry in any::<bool>(),
            no_refresh in any::<bool>(),
        ) {
            let workload = DramWorkload::ALL[wl];
            let objective = objective(kind, target);
            let mut env = if extended {
                DramEnv::extended(workload, objective)
            } else {
                DramEnv::new(workload, objective)
            };
            let space = env.space().clone();
            let mut action = space.sample(&mut seeded_rng(seed));
            // Bias toward the conditional rules' regions.
            if one_entry {
                action.as_mut_slice()[dim("RequestBufferSize")] = 0;
            }
            if no_refresh {
                action.as_mut_slice()[dim("RefreshPolicy")] = 0;
            }
            match env.canonical(&action) {
                // Canonical already: `RefreshMaxPulledIn`, inert
                // everywhere, is at index 0.
                None => prop_assert_eq!(action.index(dim("RefreshMaxPulledIn")), 0),
                Some(canonical) => {
                    prop_assert!(space.validate(&canonical).is_ok());
                    prop_assert_eq!(env.canonical(&canonical), None);
                    prop_assert_ne!(&canonical, &action);
                    let inert = ["RefreshMaxPulledIn", "RefreshMaxPostponed", "SchedulerBuffer"]
                        .map(dim);
                    for d in 0..space.len() {
                        if !inert.contains(&d) {
                            prop_assert_eq!(canonical.index(d), action.index(d));
                        }
                    }
                    prop_assert_eq!(bits(&env.step(&action)), bits(&env.step(&canonical)));
                }
            }
        }
    }

    /// Two twins that differ only in `RefreshMaxPulledIn`, through a
    /// cached `env`: one miss, one hit, and the hit is the second twin's
    /// own simulation.
    fn assert_twins_share_an_entry<E: Environment>(env: E) {
        let cache = Arc::new(EvalCache::new());
        let mut cached = CachedEnv::new(env, cache.clone());
        let mut first = fixed_design();
        first[dim("RefreshMaxPulledIn")] = 3;
        let mut second = fixed_design();
        second[dim("RefreshMaxPulledIn")] = 6;
        let (first, second) = (Action::new(first), Action::new(second));
        cached.step(&first);
        let served = cached.try_step(&second).unwrap();
        let mut plain = DramEnv::new(DramWorkload::Random, Objective::low_latency(40.0));
        assert_eq!(bits(&served), bits(&plain.step(&second)));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn canonical_twins_are_simulated_once_plain_and_boxed() {
        let env = DramEnv::new(DramWorkload::Random, Objective::low_latency(40.0));
        assert_twins_share_an_entry(env.clone());
        // `Sweep` steps boxed prototypes.
        let boxed: Box<dyn CloneEnvironment> = Box::new(env);
        assert_twins_share_an_entry(boxed);
    }

    /// A DRAM env over `workload` traced with `trace`, on either space.
    fn env_with(
        workload: DramWorkload,
        objective: Objective,
        trace: &TraceConfig,
        extended: bool,
    ) -> DramEnv {
        let mut env = DramEnv::with_trace_config(workload, objective, trace);
        if extended {
            env.space = dram_space_extended();
            env.inert = inert_dims(&env.space);
            env.twin_dims = Arc::new(TwinDims::of(&env.space));
        }
        env
    }

    /// `action`'s twin set, which must exist.
    fn twins_of(env: &mut DramEnv, action: &Action) -> (StepResult, TwinSet) {
        let (result, twins) = env.try_step_with_twins(action).unwrap();
        (
            result,
            twins.expect("a single-channel SoA run reports a twin set"),
        )
    }

    /// The indices `set` allows in dimension `name`, as a mask.
    fn mask(set: &TwinSet, name: &str) -> u64 {
        let d = dim(name);
        set.free()
            .iter()
            .find(|&&(free, _)| free == d)
            .map_or(1 << set.action().index(d), |&(_, mask)| mask)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Soundness: every member of a twin set steps bit-identically
        /// to the stepped action, on every workload, random traces and
        /// both spaces. Multi-channel designs report no set.
        #[test]
        fn prop_twin_set_members_step_bit_identically(
            seed in 0u64..u64::MAX,
            wl in 0usize..4,
            extended in any::<bool>(),
            kind in 0usize..3,
            target in 5.0f64..120.0,
            length in 48usize..400,
            mean_gap in 1u64..40,
            footprint_log in 14u32..27,
            no_refresh in any::<bool>(),
            adaptive in any::<bool>(),
        ) {
            let trace = TraceConfig { length, mean_gap, footprint: 1 << footprint_log };
            let workload = DramWorkload::ALL[wl];
            let mut env = env_with(workload, objective(kind, target), &trace, extended);
            let mut action = env.space().sample(&mut seeded_rng(seed));
            // Bias toward the conditional rules' regions.
            if no_refresh {
                action.as_mut_slice()[dim("RefreshPolicy")] = 0;
            }
            if adaptive {
                action.as_mut_slice()[dim("PagePolicy")] = 1 + 2 * (seed as usize % 2);
            }
            let (result, twins) = env.try_step_with_twins(&action).unwrap();
            prop_assert_eq!(bits(&result), bits(&env.step(&action)));
            let channels = decode_topology(env.space(), &action).channels;
            prop_assert_eq!(twins.is_some(), channels == 1);
            if let Some(twins) = twins {
                prop_assert!(twins.contains(&action));
                prop_assert_eq!(twins.action(), &action);
                let mut plain = env_with(workload, objective(kind, target), &trace, extended);
                let expected = bits(&result);
                for member in twins.members() {
                    prop_assert!(env.space().validate(&member).is_ok());
                    prop_assert_eq!(&bits(&plain.step(&member)), &expected, "{:?}", member);
                }
            }
        }

        /// Each twin set holds its action's canonical twin, so the three
        /// `canonical` rules are special cases of the witness.
        #[test]
        fn prop_twin_sets_hold_the_canonical_twin(
            seed in 0u64..u64::MAX,
            wl in 0usize..4,
            extended in any::<bool>(),
            one_entry in any::<bool>(),
            no_refresh in any::<bool>(),
        ) {
            let workload = DramWorkload::ALL[wl];
            let objective = Objective::joint(30.0, 1.0);
            let mut env = if extended {
                DramEnv::extended(workload, objective)
            } else {
                DramEnv::new(workload, objective)
            };
            let mut action = env.space().sample(&mut seeded_rng(seed));
            if one_entry {
                action.as_mut_slice()[dim("RequestBufferSize")] = 0;
            }
            if no_refresh {
                action.as_mut_slice()[dim("RefreshPolicy")] = 0;
            }
            if extended {
                action.as_mut_slice()[dram_space_extended().dim_of("Channels").unwrap()] = 0;
            }
            let (_, twins) = twins_of(&mut env, &action);
            if let Some(canonical) = env.canonical(&action) {
                prop_assert!(twins.contains(&canonical), "{:?} ∌ {:?}", twins, canonical);
            }
        }
    }

    #[test]
    fn twin_rule_refresh_max_pulled_in_frees_every_index() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        for refresh in [0, 1] {
            let mut base = fixed_design();
            base[dim("RefreshPolicy")] = refresh;
            let (_, twins) = twins_of(&mut env, &Action::new(base));
            assert_eq!(mask(&twins, "RefreshMaxPulledIn"), 0xff);
        }
        // Negative: a multi-channel run proves nothing, not even this.
        let mut wide = DramEnv::extended(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        let mut action = fixed_design();
        action.extend([1, 0]); // two channels, one rank
        assert_eq!(
            wide.try_step_with_twins(&Action::new(action)).unwrap().1,
            None
        );
    }

    #[test]
    fn twin_rule_refresh_max_postponed_keeps_the_decided_side() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        // A design slow enough that refreshes are postponed and forced.
        let slow = [0, 0, 3, 2, 1, 0, 1, 0, 1, 1];
        let (stepped, twins) = twins_of(&mut env, &Action::new(slow.to_vec()));
        let allowed = mask(&twins, "RefreshMaxPostponed");
        assert_eq!(allowed & 1, 1, "the stepped value is a twin");
        assert_ne!(allowed, 0xff, "some postpone bound decides a test");
        // Negative: every value left out steps differently.
        for i in (0..8).filter(|i| allowed >> i & 1 == 0) {
            let mut other = slow.to_vec();
            other[dim("RefreshMaxPostponed")] = i;
            assert_ne!(bits(&env.step(&Action::new(other))), bits(&stepped), "{i}");
        }
    }

    #[test]
    fn twin_rule_refresh_policy_holds_only_for_runs_that_never_refresh() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        let no_refresh = 1 << 0;
        let all_bank = 1 << 1;
        // The cloud-1 trace ends before the first refresh interval for a
        // quick design: `AllBank` fires nothing, so the policies are twins
        // either way round.
        for refresh in [0, 1] {
            let mut base = fixed_design();
            base[dim("RefreshPolicy")] = refresh;
            let (_, twins) = twins_of(&mut env, &Action::new(base));
            assert_eq!(mask(&twins, "RefreshPolicy"), no_refresh | all_bank);
        }
        // Negative: a slow design runs past several intervals, so neither
        // policy answers the other, and they step differently.
        let mut slow = vec![0, 0, 3, 2, 1, 0, 1, 0, 1, 1];
        let (refreshing, twins) = twins_of(&mut env, &Action::new(slow.clone()));
        assert_eq!(mask(&twins, "RefreshPolicy"), all_bank);
        slow[dim("RefreshPolicy")] = 0;
        let (quiet, twins) = twins_of(&mut env, &Action::new(slow));
        assert_eq!(mask(&twins, "RefreshPolicy"), no_refresh);
        assert_ne!(bits(&quiet), bits(&refreshing));
    }

    #[test]
    fn twin_rule_scheduler_buffer_needs_one_bank_or_no_hidden_write() {
        let mut env = DramEnv::new(DramWorkload::Cloud1, Objective::joint(30.0, 1.0));
        let [bankwise, read_write, shared] = [1u64, 2, 4];
        // One entry: one bank, nothing hidden, every organization alike.
        let mut single = fixed_design();
        single[dim("RequestBufferSize")] = 0;
        let (_, twins) = twins_of(&mut env, &Action::new(single));
        assert_eq!(
            mask(&twins, "SchedulerBuffer"),
            bankwise | read_write | shared
        );
        // Negative: an eight-entry `ReadWrite` buffer on a trace with
        // writes hides some, and answers only itself; so does a
        // `Bankwise` one that sees several banks.
        let mut wide = fixed_design();
        wide[dim("RequestBufferSize")] = 7;
        for (org, alone) in [(0, bankwise), (1, read_write)] {
            wide[dim("SchedulerBuffer")] = org;
            let (stepped, twins) = twins_of(&mut env, &Action::new(wide.clone()));
            assert_eq!(mask(&twins, "SchedulerBuffer"), alone, "{org}");
            let mut other = wide.clone();
            other[dim("SchedulerBuffer")] = 2;
            assert_ne!(
                bits(&env.step(&Action::new(other))),
                bits(&stepped),
                "{org}"
            );
        }
    }

    #[test]
    fn twin_rule_adaptive_page_policies_agree_only_outside_the_band() {
        let [open, open_adaptive, closed_adaptive] = [1u64, 1 << 1, 1 << 3];
        let mut env = DramEnv::new(DramWorkload::Stream, Objective::joint(30.0, 1.0));
        let mut design = fixed_design();
        design[dim("PagePolicy")] = 1; // OpenAdaptive
        let action = Action::new(design);
        let (_, twins) = twins_of(&mut env, &action);
        // No EWMA of this model ever leaves 0 (an adaptive policy never
        // keeps a row open, so no access hits), so both agree.
        assert_eq!(mask(&twins, "PagePolicy"), open_adaptive | closed_adaptive);
        // Negative: a witness that saw an EWMA in the band keeps the
        // stepped policy alone. The engine cannot reach one today, so the
        // mapping is checked directly.
        let config = decode_config(env.space(), &action);
        let between = Witness {
            ewma_between: true,
            ..Witness::default()
        };
        let twins = env.twin_dims.twins(&action, &config, &between, 0);
        assert_eq!(mask(&twins, "PagePolicy"), open_adaptive);
        // Static policies never answer each other.
        let (_, twins) = twins_of(&mut env, &Action::new(fixed_design()));
        assert_eq!(mask(&twins, "PagePolicy"), open);
    }

    #[test]
    fn plain_steps_compute_no_witness_and_match_witnessed_ones() {
        let mut env = DramEnv::new(DramWorkload::Cloud2, Objective::joint(30.0, 1.0));
        let mut rng = seeded_rng(7);
        for _ in 0..16 {
            let action = env.space().sample(&mut rng);
            let (witnessed, twins) = env.try_step_with_twins(&action).unwrap();
            assert!(twins.is_some());
            assert_eq!(bits(&witnessed), bits(&env.step(&action)));
            assert_eq!(bits(&witnessed), bits(&env.try_step(&action).unwrap()));
        }
    }

    #[test]
    fn canonical_traces_share_one_allocation() {
        let a = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
        let b = DramEnv::new(DramWorkload::Stream, Objective::low_latency(30.0));
        // Same workload, default trace config: both envs point at the
        // process-wide canonical trace, not private copies.
        assert!(std::ptr::eq(a.trace().as_ptr(), b.trace().as_ptr()));
        let c = a.clone();
        assert!(std::ptr::eq(a.trace().as_ptr(), c.trace().as_ptr()));
    }

    #[test]
    fn env_name_includes_workload() {
        let env = DramEnv::new(DramWorkload::Cloud2, Objective::low_power(1.0));
        assert_eq!(env.name(), "dram/cloud-2");
    }
}
