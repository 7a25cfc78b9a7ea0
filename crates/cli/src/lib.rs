//! # archgym-cli
//!
//! The command-line front end for ArchGym. Everything the library can do
//! from Rust, scripted from a shell:
//!
//! ```sh
//! archgym list
//! archgym search --env dram/stream --agent ga --objective power:1.0 --budget 1000
//! archgym sweep  --env farsi/edge-detection --agent rl --budget 500 --seeds 2
//! archgym trace  --workload cloud-1 --length 2000 --out trace.stl
//! archgym proxy  --dataset explored.jsonl --metric 1
//! ```
//!
//! The crate splits into [`args`] (a tiny `--key value` parser), [`spec`]
//! (string specs for environments, objectives and agents — shared with
//! the `archgymd` daemon, which owns the module), and [`cmd`] (one
//! function per subcommand, all returning their report as a string so
//! they are unit-testable without a terminal).
//!
//! `search`, `compare`, `search --auto` and `sweep` parse their flags
//! into a `JobSpec` and run it through [`archgymd::job::run`], the same
//! code the daemon's workers run, so a command and the daemon job with
//! the same spec give the same result. `submit` parses the same flags
//! into the spec it sends. Daemon client subcommands (`serve`,
//! `submit`, `status`, `watch`, `cancel`) live in [`cmd`] too and speak
//! the [`archgymd`] protocol.

pub mod args;
pub mod cmd;
pub use archgymd::spec;

pub use args::Args;
pub use cmd::run;
