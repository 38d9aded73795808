//! # nra-engine
//!
//! Flat relational execution substrate:
//!
//! * [`expr`] — compilation of bound expressions to index-resolved form,
//!   evaluated under SQL three-valued logic;
//! * [`exec`] — the morsel-style partition scheduler: worker budget,
//!   contiguous chunking, deterministic fork/join and a stable parallel
//!   sort (see `DESIGN.md` §10);
//! * [`governor`] — per-query resource governance: memory budgets,
//!   cooperative cancellation, and the worker handoff for both;
//! * [`config`] — the typed `NRA_*` configuration: one strict parser per
//!   environment variable and the one `NRA_FAULT` grammar parser;
//! * [`faultinject`] — deterministic fault injection at named execution
//!   sites (`NRA_FAULT`), proving every recovery path;
//! * [`ops`] — physical operators (scan, filter, project, sort, Cartesian
//!   product, and hash inner/left-outer/semi/anti joins with residuals);
//! * [`planning`] — helpers splitting join conditions into hash keys and
//!   residual predicates;
//! * [`baseline`] — "System A"'s native plans from the paper's Section 5
//!   (bottom-up semijoin/antijoin cascades, and nested iteration with index
//!   probes);
//! * [`reference`] — the brute-force tuple-iteration oracle every strategy
//!   is validated against;
//! * [`vec`] — the vectorized columnar execution core: [`vec::ValueBatch`]
//!   typed lanes + validity bitmaps, selection vectors, columnar 3VL
//!   predicate evaluation, group-boundary kernels, and the vendored
//!   FxHash-style hasher backing every hash table (see `DESIGN.md` §13).

pub mod baseline;
pub mod config;
pub mod error;
pub mod exec;
pub mod expr;
pub mod faultinject;
pub mod governor;
pub mod ops;
pub mod planning;
pub mod reference;
pub mod vec;

pub use error::EngineError;
pub use expr::{CExpr, CPred};
pub use faultinject::{FaultKind, FaultPlan};
pub use governor::{AdmissionConfig, AdmissionController, AdmissionPermit, CancelToken, Governor};
pub use ops::{join, JoinKind, JoinSpec};
