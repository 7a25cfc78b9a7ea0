//! `archgymd` — a multi-tenant search service for ArchGym.
//!
//! The daemon exposes the gym's search/compare/sweep drivers over a
//! line-delimited JSON protocol on plain TCP (no external
//! dependencies; framing reuses the in-repo codec). Submitted jobs
//! pass quota-based admission control ([`archgym_core::jobs`]), run on
//! a fixed worker fleet, stream per-batch telemetry to watchers, and
//! are journaled so a killed daemon resumes in-flight jobs
//! bit-identically on restart.
//!
//! Layers:
//!
//! * [`protocol`] — the wire frames and their canonical encoding.
//! * [`store`] — the state directory (specs, journals, outcomes),
//!   checksummed and quarantine-on-corruption, behind the
//!   [`archgym_core::storeio`] fault-injectable I/O seam.
//! * [`job`] — the one job path: a `JobSpec` in, its runs, race or
//!   sweep out. The workers and the CLI's `search`, `compare`,
//!   `search --auto` and `sweep` all run specs through it.
//! * [`server`] — listener (connection-capped), scheduler, supervised
//!   worker fleet (deadlines, stall watchdog), event streaming, and
//!   drain/interrupt shutdown.
//! * [`client`] — a small blocking client used by the CLI and tests,
//!   with connect/read timeouts and a reconnecting, deduplicating
//!   [`client::WatchStream`].
//! * [`spec`] — environment-spec parsing (`dram/stream`, ...), shared
//!   with `archgym-cli`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod store;

pub use client::{request_one, Client, ConnectOptions, WatchItem, WatchStream};
pub use protocol::{ErrorCode, JobStatus, Request, Response, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use server::{DaemonConfig, Server};
pub use store::{JobOutcome, JobStore, PersistedJob};
