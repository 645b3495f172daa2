//! Harness regenerating every table and figure of the UADB paper:
//! [`experiments`] has one function per artefact, named after it
//! (`table3` … `fig10`), plus the design [`experiments::ablation`].
//!
//! One binary runs them: `repro <artefact>` (`src/bin/repro.rs`) reads
//! the settings once through [`setup::Settings`], passes them to the
//! experiment, and prints the paper-style rows through [`report`]. The
//! `benches/` targets are performance benches only (`matmul`, `serve`,
//! `train`, `detectors`); `bench_gate` checks the `BENCH_*.json` files
//! the first three write.
//!
//! Settings:
//! * `UADB_SUITE` — `full` (all 84 roster entries, the default) or
//!   `quick` (the 12-dataset subset);
//! * `UADB_SCALE` — dataset sizes: `quick` (n ∈ [240, 520], default) or
//!   `full` (n ∈ [400, 1200]);
//! * `UADB_RUNS`  — independent seeds averaged per cell (default 1; the
//!   paper uses 10);
//! * `UADB_SEED`  — master seed (default 0).
//!
//! Suite and scale match in any case; any other value, a seed that is
//! not a `u64` or a run count below 1 is an error.

pub mod experiments;
pub mod report;
pub mod setup;
