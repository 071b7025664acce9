//! Benchmark crate: the `repro` binary that regenerates every table,
//! figure and ablation study.
//!
//! Run `cargo run -p mlscore-bench --bin repro -- all` to print the full
//! set, or name a figure: `fig1`, `fig7a`, `fig7b`, `fig8`, `fig9`,
//! `fig10`, `fig11`, `headlines`, `scheduler`; `ablations` prints the
//! ablation tables.
//!
//! [`cpu_bench`] is the *measured* (wall-clock) counterpart: `repro bench`
//! sweeps the real CPU scoring kernels and writes `BENCH_cpu_scoring.json`.
//!
//! [`serve_bench`] drives the discrete-event serving engine: `repro serve`
//! sweeps offered load with micro-batch coalescing on and off and writes
//! the report where `--out` points.
//!
//! [`run_report`] renders one observed serving run (`repro report`):
//! windowed metrics, per-class SLO attainment, budget-burn alerts, and
//! slowest-request stage breakdowns from the lifecycle journal.
//!
//! [`diff`] compares two benchmark reports cell by cell
//! (`repro bench --diff old.json new.json`) and flags throughput
//! regressions beyond a relative tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu_bench;
pub mod diff;
pub mod run_report;
pub mod serve_bench;
