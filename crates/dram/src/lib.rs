//! # archgym-dram — DRAMGym
//!
//! A DRAM memory-controller design-space-exploration environment for
//! ArchGym, standing in for the DRAMSys4.0 simulator used by the paper.
//!
//! The crate contains a transaction-level DRAM subsystem simulator:
//!
//! * [`device`] — DDR3-style device timing and current parameters,
//!   address mapping and per-bank state.
//! * [`trace`] — the four memory-trace workloads of the paper's Fig. 4
//!   (streaming, random/pointer-chase, cloud-1, cloud-2).
//! * [`controller`] — the configurable memory controller: request buffer,
//!   schedulers, page policies, arbiter, response queue, refresh policies —
//!   exactly the ten parameters of the paper's Fig. 3(a) — plus the
//!   channel/rank [`Topology`] axes of the extended space.
//! * [`engine`] — the timing engines behind the controller: the
//!   data-oriented structure-of-arrays engine and the linear-scan
//!   reference oracle it is bit-identical to.
//! * [`power`] — activate/read/write/refresh energy and background power
//!   accounting.
//! * [`mod@env`] — [`DramEnv`], the ArchGym [`Environment`] exposing
//!   `<latency, power, energy>` observations and the Table 3 reward.
//!
//! # Example
//!
//! ```
//! use archgym_core::prelude::*;
//! use archgym_dram::{DramEnv, DramWorkload, Objective};
//!
//! let mut env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
//! let mut rng = archgym_core::seeded_rng(1);
//! let action = env.space().sample(&mut rng);
//! let result = env.step(&action);
//! assert_eq!(result.observation.len(), 3); // <latency, power, energy>
//! assert!(result.reward > 0.0);
//! ```
//!
//! [`Environment`]: archgym_core::Environment

pub mod controller;
pub mod device;
pub mod engine;
pub mod env;
pub mod power;
pub mod trace;

pub use controller::{
    Arbiter, ControllerConfig, MemoryController, PagePolicy, RefreshPolicy, RespQueue, Scheduler,
    SchedulerBuffer, SimStats,
};
pub use device::{AddressMapping, BankState, DeviceTiming, Topology};
pub use engine::{EngineKind, EventWheel};
pub use env::{decode_topology, dram_space, dram_space_extended, DramEnv, Objective};
pub use trace::{
    characterize, read_trace, write_trace, DramWorkload, MemoryRequest, TraceConfig, TraceStats,
};
