//! The repository's benchmark of record: workloads run against the
//! public API (SQL over `nra_server::Client`, durable writes through
//! `Database::insert`), every answer verified, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-subq|point-mix|ingest-read --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root; everything a run writes goes under
//! `.perfbench/` there (see `BENCHMARK.json` for the metric contract).

pub mod env;
pub mod exact;
pub mod layers;
pub mod measure;
pub mod run;
pub mod stats;
pub mod verify;
pub mod workloads;
