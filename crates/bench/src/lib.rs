//! Benchmark harness regenerating every table and figure of the UADB
//! paper: [`experiments`] has one function per artefact, named after it
//! (`table3` … `fig10`).
//!
//! Each Criterion bench target under `benches/` and each full-run binary
//! under `src/bin/` calls into the experiment functions here, prints the
//! paper-style rows, and (for benches) times a representative kernel.
//!
//! Environment knobs:
//! * `UADB_SUITE` — `quick` (12-dataset subset, default for benches) or
//!   `full` (all 84 roster entries, default for the bins);
//! * `UADB_SCALE` — dataset sizes: `quick` (n ∈ [240, 520], default) or
//!   `full` (n ∈ [400, 1200]);
//! * `UADB_RUNS`  — independent seeds averaged per cell (default 1; the
//!   paper uses 10);
//! * `UADB_SEED`  — master seed (default 0).

pub mod experiments;
pub mod report;
pub mod setup;
