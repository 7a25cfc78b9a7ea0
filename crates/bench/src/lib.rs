//! # archgym-bench
//!
//! Experiment harnesses that regenerate **every table and figure** of the
//! ArchGym paper's evaluation (Section 6–7). Each experiment is a library
//! function (so integration tests can run it at smoke scale) plus a
//! binary that prints the same rows/series the paper reports:
//!
//! | Paper artifact | Library entry | Binary |
//! |---|---|---|
//! | Fig. 4 — hyperparameter lottery on DRAM (4 traces × 3 objectives) | [`fig4::run`] | `cargo run -p archgym-bench --release --bin fig4` |
//! | Fig. 5 — lottery across all four simulators | [`fig5::run`] | `--bin fig5` |
//! | Fig. 6 — GAMMA domain-specific-operator ablation | [`fig6::run`] | `--bin fig6` |
//! | Fig. 7 — mean normalized reward vs sample budget | [`fig7::run`] | `--bin fig7` |
//! | Fig. 8 — time-to-completion per agent | [`fig8::run`] | `--bin fig8` |
//! | Table 4 — low-power DRAM controllers found per agent | [`table4::run`] | `--bin table4` |
//! | Figs. 9–10 — dataset aggregation & proxy RMSE vs size/diversity | [`fig10::run`] | `--bin fig10` |
//! | Fig. 11 — predicted-vs-actual correlation | [`fig11::run`] | `--bin fig11` |
//! | Fig. 12 — proxy speedup & RMSE table | [`fig12::run`] | `--bin fig12` |
//!
//! Every harness takes a [`Scale`]: `Smoke` for CI, `Default` for a
//! laptop-minutes run, `Full` for a faithful (hours-long) sweep. The
//! sweep-style harnesses also take a `jobs` worker-thread count
//! (`--jobs=N` on the binaries; `0` = every available core) and fan
//! their independent runs over an `archgym_core::Executor` — results
//! are bit-identical at any thread count.
//!
//! Beyond the paper's artifacts, [`ablation`] isolates per-knob
//! sensitivity (one hyperparameter at a time; `--bin ablation`),
//! [`sample_efficiency`] reports samples-to-target directly
//! (`--bin sample_efficiency`), and [`perf`] times the DRAM engine and
//! gates four in-run ratios (SoA vs reference engine, pooled vs serial,
//! telemetry on vs off, cold vs warm `EvalCache`), appending each run to
//! `BENCH_perf.json`
//! (`cargo run -p archgym-bench --release --bin bench -- perf`).

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod harness;
pub mod perf;
pub mod sample_efficiency;
pub mod table4;

pub use harness::{lottery, print_summary_table, LotterySpec, Scale};
