//! The DRAM timing engines behind one [`EngineKind`] dispatch.
//!
//! The memory controller's transaction-level simulation is the hottest
//! path in the repository — every search, sweep, compare and daemon job
//! bottoms out in it — so it exists as one fast engine plus the oracle
//! it is tested against. Both must produce **bit-identical** results:
//!
//! * [`EngineKind::Reference`] — the naive linear-scan oracle: every
//!   scheduling decision rescans the flat request buffer. Slow, obviously
//!   correct, and the baseline the fast engine is tested against.
//! * [`EngineKind::Soa`] — the data-oriented engine: flat
//!   structure-of-arrays bank state, a pooled bitmask request arena
//!   scanned with `trailing_zeros`, and a monotone [`EventWheel`] for
//!   outstanding completions. The default whenever the configuration
//!   shape allows it (≤ [`soa::MAX_BANKS`] banks, ≤ [`soa::MAX_SLOTS`]
//!   buffer entries); larger shapes fall back to the reference engine.
//!   Every bundled env space fits those limits.

mod reference;
pub(crate) mod soa;
mod wheel;

pub use wheel::EventWheel;

use crate::controller::ControllerConfig;
use crate::device::{AddressMapping, DeviceTiming};
use crate::power::OpCounts;
use crate::trace::MemoryRequest;

/// Selects a timing-engine implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Linear-scan oracle (slow, the correctness baseline).
    Reference,
    /// Structure-of-arrays bitmask engine (fast; shape-limited).
    Soa,
}

impl EngineKind {
    /// All engines, slowest first.
    pub const ALL: [EngineKind; 2] = [EngineKind::Reference, EngineKind::Soa];

    /// Stable display name (used by bench scenario labels).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Soa => "soa",
        }
    }

    /// Whether this engine supports the given controller shape. The
    /// dispatcher falls back to [`EngineKind::Reference`] (always
    /// capable) when the preferred engine cannot run a configuration.
    pub fn supports(self, ctx: &EngineCtx<'_>) -> bool {
        match self {
            EngineKind::Reference => true,
            EngineKind::Soa => {
                ctx.mapping.banks() <= soa::MAX_BANKS
                    && ctx.config.request_buffer_size <= soa::MAX_SLOTS
            }
        }
    }

    /// Run this engine over `trace`, falling back to the reference
    /// engine when the shape is unsupported (so dispatch is total). The
    /// SoA arena stores arrival ids as `u32`, so gigantic traces also
    /// fall back.
    pub fn run(self, ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun {
        match self {
            EngineKind::Soa if self.supports(ctx) && trace.len() <= u32::MAX as usize => {
                soa::run(ctx, trace)
            }
            EngineKind::Reference | EngineKind::Soa => reference::run(ctx, trace),
        }
    }

    /// [`EngineKind::run`], plus the run's [`Witness`] when the SoA engine
    /// ran it; the reference engine and its fallbacks track none.
    pub(crate) fn run_witnessed(
        self,
        ctx: &EngineCtx<'_>,
        trace: &[MemoryRequest],
    ) -> (RawRun, Option<Witness>) {
        match self {
            EngineKind::Soa if self.supports(ctx) && trace.len() <= u32::MAX as usize => {
                let (raw, witness) = soa::run_witnessed(ctx, trace);
                (raw, Some(witness))
            }
            EngineKind::Reference | EngineKind::Soa => (reference::run(ctx, trace), None),
        }
    }
}

/// What one SoA run saw at its own decision points: enough to tell which
/// other values of the refresh, buffer-organization and adaptive-page
/// parameters would have decided every one of them the same way, and so
/// would have run bit for bit the same. Each fact is tracked only until
/// it is settled, and only by [`EngineKind::run_witnessed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Witness {
    /// Under `AllBank`: the largest refresh debt at a postpone test
    /// (`debt > max_postponed`, where no opportunistic refresh fired
    /// regardless) that did not force a refresh; 0 if none did not.
    pub max_unforced_debt: i64,
    /// Under `AllBank`: the smallest debt at a postpone test that forced
    /// a refresh; `i64::MAX` if none did.
    pub min_forced_debt: i64,
    /// Under `NoRefresh`: the debt an `AllBank` controller would hold at
    /// the run's last refresh check, had it never refreshed.
    pub shadow_debt: i64,
    /// Under `NoRefresh`: whether that controller would have found an
    /// opportunistic refresh eligible (buffer empty, requests left, debt
    /// positive) at some refresh check.
    pub shadow_opportunity: bool,
    /// Whether the live entries spanned two banks or more at some pick.
    pub multi_bank: bool,
    /// Whether reads and writes were both live at some pick.
    pub mixed: bool,
    /// Under an adaptive page policy: whether a bank's hit-rate EWMA fell
    /// in (0.25, 0.75] at some page decision, where the open- and
    /// closed-leaning thresholds disagree.
    pub ewma_between: bool,
}

impl Default for Witness {
    /// Nothing seen yet.
    fn default() -> Self {
        Witness {
            max_unforced_debt: 0,
            min_forced_debt: i64::MAX,
            shadow_debt: 0,
            shadow_opportunity: false,
            multi_bank: false,
            mixed: false,
            ewma_between: false,
        }
    }
}

/// Immutable inputs shared by every engine: device timing, address
/// mapping (bank count already includes the rank multiplier) and the
/// ten-parameter controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineCtx<'a> {
    /// Device timing parameters.
    pub timing: &'a DeviceTiming,
    /// Address decomposition; [`AddressMapping::banks`] is the engine's
    /// bank-state width.
    pub mapping: &'a AddressMapping,
    /// Controller configuration.
    pub config: &'a ControllerConfig,
}

/// Raw output of one engine run over one (channel-local) trace, before
/// stage-10 accounting: per-request completion cycles plus the operation
/// and row-buffer counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRun {
    /// Completion (data-end) cycle per request, indexed by trace position.
    pub completion: Vec<u64>,
    /// Operation counters for the energy model.
    pub counts: OpCounts,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_misses: u64,
    /// Accesses that closed another row first.
    pub row_conflicts: u64,
}

/// One buffered request, as the reference (array-of-structs) engine
/// stores it. The SoA engine splits these fields across parallel arrays.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub id: usize,
    pub row: u64,
    pub bank: usize,
    pub is_write: bool,
}

/// Per-bank timing state for the reference engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    pub open_row: Option<u64>,
    /// Earliest cycle the bank accepts its next column command.
    pub ready_at: u64,
    pub activated_at: u64,
    /// When the last access's data (plus write recovery) finishes — the
    /// earliest a precharge may start.
    pub data_done: u64,
    pub hit_ewma: f64,
}
