//! # nra — A Nested Relational Approach to Processing SQL Subqueries
//!
//! Top-level facade over the workspace crates, reproducing Cao & Badia's
//! SIGMOD 2005 system: a SQL front end for nested non-aggregate
//! subqueries, a flat relational engine with the commercial-style baseline
//! plans, and the paper's nested relational evaluation strategies.
//!
//! Queries go through one entry point, [`Database::execute`], driven by a
//! [`QueryOptions`] builder and returning a [`QueryOutcome`]:
//!
//! ```
//! use nra::{Database, QueryOptions};
//! use nra::storage::{Column, ColumnType, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "emp",
//!     vec![
//!         Column::not_null("id", ColumnType::Int),
//!         Column::new("salary", ColumnType::Int),
//!         Column::new("dept", ColumnType::Int),
//!     ],
//!     &["id"],
//! )
//! .unwrap();
//! db.insert("emp", vec![
//!     vec![Value::Int(1), Value::Int(90), Value::Int(1)],
//!     vec![Value::Int(2), Value::Int(70), Value::Int(1)],
//!     vec![Value::Int(3), Value::Null,   Value::Int(2)],
//! ])
//! .unwrap();
//!
//! // Employees earning more than everyone in department 2 — a `> ALL`
//! // subquery, NULL-correct out of the box.
//! let top = db
//!     .execute("select id from emp where salary > all \
//!               (select salary from emp e2 where e2.dept = 2)",
//!              &QueryOptions::new())
//!     .unwrap();
//! assert_eq!(top.rows.len(), 0, "NULL salary in dept 2 blocks every comparison");
//! ```
//!
//! The same call collects plans, operator profiles, lifecycle traces, and
//! controls the partition-parallel executor:
//!
//! ```
//! # use nra::{Database, QueryOptions};
//! # let db = Database::new();
//! # let _ = &db;
//! let opts = QueryOptions::new()
//!     .threads(4)             // worker budget for the morsel scheduler
//!     .collect_profile(true); // per-operator stats in `outcome.profile`
//! # let _ = opts;
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

mod durable;
mod lifecycle;
mod plancache;
mod session;
mod sys;

pub use durable::{DurabilityInfo, RecoveryReport};
pub use session::Session;

pub use nra_core as core;
pub use nra_engine as engine;
pub use nra_obs as obs;
pub use nra_sql as sql;
pub use nra_storage as storage;
pub use nra_tpch as tpch;

pub use nra_core::Strategy;
use nra_engine::config::Config;
pub use nra_engine::{AdmissionConfig, AdmissionController, CancelToken, FaultKind};
use nra_engine::{EngineError, FaultPlan, Governor};
use nra_sql::{BoundQuery, SqlError};
use nra_storage::{Catalog, Column, Relation, Schema, StorageError, Table, Tuple};

/// Which execution engine answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's nested relational approach with the given strategy.
    NestedRelational(Strategy),
    /// The "System A"-style native plans (semijoin/antijoin cascades when
    /// licensed, nested iteration with index probes otherwise).
    Baseline,
    /// The brute-force tuple-iteration oracle.
    Reference,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::NestedRelational(Strategy::Auto)
    }
}

/// The one engine-name table, shared by the CLI's `:engine` and the
/// server's `.set engine` (case-insensitive).
impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(name: &str) -> Result<Engine, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "auto" | "nr" => Engine::NestedRelational(Strategy::Auto),
            "original" => Engine::NestedRelational(Strategy::Original),
            "optimized" => Engine::NestedRelational(Strategy::Optimized),
            "bottomup" => Engine::NestedRelational(Strategy::BottomUp),
            "pushdown" => Engine::NestedRelational(Strategy::BottomUpPushdown),
            "positive" => Engine::NestedRelational(Strategy::PositiveRewrite),
            "baseline" | "native" => Engine::Baseline,
            "oracle" | "reference" => Engine::Reference,
            other => return Err(format!("unknown engine `{other}`")),
        })
    }
}

/// Unified error type of the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum NraError {
    Storage(StorageError),
    Sql(SqlError),
    Engine(EngineError),
}

impl NraError {
    /// The error's kind — the one outcome vocabulary. It labels the
    /// query record (`nra_sys.queries.outcome`, the slow log,
    /// `Profile::outcome`), the `nra_queries_total{outcome}` and
    /// `nra_errors_total{variant}` metrics, and the server's `err <kind>`
    /// line: `"sql"`, `"storage"`, or the engine error's variant name.
    pub fn kind(&self) -> &'static str {
        match self {
            NraError::Sql(_) => "sql",
            NraError::Storage(_) => "storage",
            NraError::Engine(e) => e.variant_name(),
        }
    }
}

impl fmt::Display for NraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NraError::Storage(e) => write!(f, "{e}"),
            NraError::Sql(e) => write!(f, "{e}"),
            NraError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NraError::Storage(e) => Some(e),
            NraError::Sql(e) => Some(e),
            NraError::Engine(e) => Some(e),
        }
    }
}

impl From<StorageError> for NraError {
    fn from(e: StorageError) -> Self {
        NraError::Storage(e)
    }
}

impl From<SqlError> for NraError {
    fn from(e: SqlError) -> Self {
        NraError::Sql(e)
    }
}

impl From<EngineError> for NraError {
    fn from(e: EngineError) -> Self {
        NraError::Engine(e)
    }
}

/// Per-call knobs for [`Database::execute`], built fluently:
///
/// ```
/// use nra::{Engine, QueryOptions, Strategy};
/// let opts = QueryOptions::new()
///     .engine(Engine::NestedRelational(Strategy::Optimized))
///     .threads(4)
///     .collect_profile(true);
/// # let _ = opts;
/// ```
///
/// Everything defaults off: nested relational engine with the auto
/// strategy, ambient thread budget (the `NRA_THREADS` environment
/// variable, else sequential), no profile, no trace, no plan text.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    engine: Engine,
    threads: Option<usize>,
    collect_profile: bool,
    collect_metrics: bool,
    collect_trace: bool,
    explain_only: bool,
    simulate_io: bool,
    mem_limit_bytes: Option<u64>,
    timeout_ms: Option<u64>,
    cancel: Option<CancelToken>,
    faults: Vec<(String, u64, FaultKind)>,
    slow_ms: Option<u64>,
    slow_log: Option<std::path::PathBuf>,
    plan_cache: Option<bool>,
    /// Set on the nested call that answers an `nra_sys.*` query: the
    /// introspection query itself stays out of the query registry, the
    /// progress tracker, the slow-query log and the plan cache (no
    /// self-recursion, no pollution from transient overlay databases).
    pub(crate) introspection: bool,
    /// Session the call runs under, stamped by [`Session`] (0 = a
    /// one-shot call outside any session).
    pub(crate) session: u64,
}

impl QueryOptions {
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Execute with an explicit engine (default: nested relational with
    /// [`Strategy::Auto`]).
    pub fn engine(mut self, engine: Engine) -> QueryOptions {
        self.engine = engine;
        self
    }

    /// Shorthand for the nested relational engine with a forced strategy.
    pub fn strategy(self, strategy: Strategy) -> QueryOptions {
        self.engine(Engine::NestedRelational(strategy))
    }

    /// Worker-thread budget for the partition-parallel executor
    /// ([`engine::exec`]). Overrides the `NRA_THREADS` environment
    /// variable for this call only; `1` forces sequential execution.
    /// Results are identical at any thread count.
    pub fn threads(mut self, n: usize) -> QueryOptions {
        self.threads = Some(n);
        self
    }

    /// Collect per-operator statistics; [`QueryOutcome::profile`] is then
    /// `Some`. With the [`Strategy::Original`] nested relational engine
    /// this also renders the analyzed plan into [`QueryOutcome::plan`]
    /// (the `EXPLAIN ANALYZE` text).
    pub fn collect_profile(mut self, on: bool) -> QueryOptions {
        self.collect_profile = on;
        self
    }

    /// Collect per-query metrics into a dedicated registry scope;
    /// [`QueryOutcome::metrics`] is then a [`obs::metrics::Snapshot`] of
    /// everything the call recorded (operator counters, rows produced,
    /// outcome, Q-error histogram). The per-query scope deliberately
    /// excludes wall-clock times and partition counts, so the snapshot is
    /// byte-identical at any thread count. The same scope is also
    /// populated (and appended as JSONL) when the `NRA_METRICS=path`
    /// environment variable is set, independent of this option.
    pub fn collect_metrics(mut self, on: bool) -> QueryOptions {
        self.collect_metrics = on;
        self
    }

    /// Capture the query-lifecycle trace (parse/bind/plan/execute phases,
    /// planner decisions, rewrites, operator events);
    /// [`QueryOutcome::trace`] is then `Some`.
    pub fn collect_trace(mut self, on: bool) -> QueryOptions {
        self.collect_trace = on;
        self
    }

    /// Don't execute: return only the one-line plan description in
    /// [`QueryOutcome::plan`] (the classic `EXPLAIN`).
    pub fn explain_only(mut self, on: bool) -> QueryOptions {
        self.explain_only = on;
        self
    }

    /// Run the I/O simulator for the duration of the call (unless the
    /// caller already enabled it), so profiles carry page counts.
    pub fn simulate_io(mut self, on: bool) -> QueryOptions {
        self.simulate_io = on;
        self
    }

    /// Memory budget for this call, in bytes. Governed allocations (hash
    /// join builds, nest group buffers, sort scratch, materialized
    /// intermediates) are charged against it; exceeding the budget fails
    /// the query with [`engine::EngineError::ResourceExhausted`] instead
    /// of exhausting the process. Overrides the `NRA_MEM_LIMIT`
    /// environment variable for this call.
    pub fn mem_limit_bytes(mut self, bytes: u64) -> QueryOptions {
        self.mem_limit_bytes = Some(bytes);
        self
    }

    /// Cancel the query after `ms` milliseconds (cooperatively — it stops
    /// at the next operator checkpoint, failing with
    /// [`engine::EngineError::Cancelled`]). `0` cancels at the first
    /// checkpoint.
    pub fn timeout_ms(mut self, ms: u64) -> QueryOptions {
        self.timeout_ms = Some(ms);
        self
    }

    /// Attach a cancellation handle: calling [`CancelToken::cancel`] from
    /// any thread stops the query at its next checkpoint.
    pub fn cancel(mut self, token: CancelToken) -> QueryOptions {
        self.cancel = Some(token);
        self
    }

    /// Arm a deterministic fault at a named execution site (see
    /// [`engine::faultinject`]) — the test-harness API behind the
    /// `NRA_FAULT` environment variable.
    pub fn fault(mut self, site: impl Into<String>, nth: u64, kind: FaultKind) -> QueryOptions {
        self.faults.push((site.into(), nth, kind));
        self
    }

    /// Slow-query threshold in milliseconds: a query whose wall time
    /// reaches it is counted in `nra_slow_queries_total` and — when a
    /// log path is configured via [`QueryOptions::slow_log`] or the
    /// `NRA_SLOW_LOG` environment variable — appended to the JSONL
    /// slow-query log (see [`obs::slowlog`]). `0` logs every query.
    /// Falls back to the `NRA_SLOW_MS` environment variable when unset.
    pub fn slow_ms(mut self, ms: u64) -> QueryOptions {
        self.slow_ms = Some(ms);
        self
    }

    /// Slow-query log destination for this call, overriding the
    /// `NRA_SLOW_LOG` environment variable. Records are appended as
    /// schema-validated JSONL ([`obs::slowlog::validate_lines`]).
    pub fn slow_log(mut self, path: impl Into<std::path::PathBuf>) -> QueryOptions {
        self.slow_log = Some(path.into());
        self
    }

    /// Opt this call in or out of the process-wide plan cache (bound
    /// plans keyed on normalized SQL; see `DESIGN.md` §15). The default
    /// is **on** — repeats of a statement skip the parser and binder
    /// until a catalog write invalidates them. Results are identical
    /// either way; only plan reuse changes.
    pub fn plan_cache(mut self, on: bool) -> QueryOptions {
        self.plan_cache = Some(on);
        self
    }

    /// Cache policy: the explicit option, else on. Introspection calls
    /// never use the cache (their overlay databases are transient).
    fn plan_cache_enabled(&self) -> bool {
        !self.introspection && self.plan_cache.unwrap_or(true)
    }

    /// The [`Governor`] these options describe over the configured
    /// `NRA_MEM_LIMIT` / `NRA_FAULT`; `None` when nothing is armed.
    fn governor(&self, config: &Config) -> Option<Governor> {
        let mut gov = Governor::new();
        if let Some(bytes) = self.mem_limit_bytes.or(config.mem_limit) {
            gov = gov.mem_limit(bytes);
        }
        if let Some(ms) = self.timeout_ms {
            gov = gov.timeout_ms(ms);
        }
        if let Some(token) = &self.cancel {
            gov = gov.cancel_token(token.clone());
        }
        let mut plan = FaultPlan::default();
        for (site, nth, kind) in &self.faults {
            plan.push(site.clone(), *nth, *kind);
        }
        if plan.is_empty() {
            plan = config.fault_plans().0;
        }
        let gov = gov.faults(plan);
        gov.is_armed().then_some(gov)
    }
}

/// Everything a [`Database::execute`] call produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result relation (empty with an empty schema under
    /// [`QueryOptions::explain_only`]).
    pub rows: Relation,
    /// Plan text: the one-line engine description under `explain_only`,
    /// or the operator-annotated `EXPLAIN ANALYZE` tree when a profile
    /// was collected with the Algorithm 1 strategy.
    pub plan: Option<String>,
    /// Per-operator statistics, when requested.
    pub profile: Option<obs::Profile>,
    /// Snapshot of the per-query metrics scope, when requested via
    /// [`QueryOptions::collect_metrics`] (or the `NRA_METRICS`
    /// environment variable). Thread-count-invariant by construction.
    pub metrics: Option<obs::metrics::Snapshot>,
    /// The captured lifecycle trace, when requested.
    pub trace: Option<obs::trace::Trace>,
    /// The worker-thread budget the call ran with (1 = sequential).
    pub threads: usize,
    /// The final progress snapshot (100% on success). `None` for
    /// `explain_only`, `ANALYZE` and introspection (`nra_sys.*`) calls,
    /// which skip progress tracking.
    pub progress: Option<obs::progress::ProgressSnapshot>,
}

impl QueryOutcome {
    /// The outcome of a statement answered by plan text alone
    /// (`EXPLAIN`, `ANALYZE`).
    fn plan_only(plan: String, threads: usize) -> QueryOutcome {
        QueryOutcome {
            rows: Relation::new(Schema::new(Vec::new())),
            plan: Some(plan),
            profile: None,
            metrics: None,
            trace: None,
            threads,
            progress: None,
        }
    }
}

/// Process-unique database ids, used as the first component of every
/// plan-cache key: two databases must never share cached plans even for
/// byte-identical SQL, because bound plans embed catalog-specific name
/// resolutions.
fn next_db_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// State shared by every handle to one database: the catalog behind a
/// readers-writer lock, the schema version driving plan-cache
/// invalidation, the admission controller gating concurrent queries,
/// and the session-id counter.
struct DbShared {
    id: u64,
    catalog: RwLock<Catalog>,
    /// Bumped on every catalog write (DDL, insert, `ANALYZE`, or a
    /// [`Database::catalog_mut`] guard dropping). A cached plan is
    /// served only while its recorded version still matches. Durable
    /// databases restore it to the last applied LSN on open, so plans
    /// cached before a crash can never match a recovered catalog.
    version: AtomicU64,
    admission: Mutex<Arc<AdmissionController>>,
    next_session: AtomicU64,
    /// WAL + snapshot state for databases opened via [`Database::open`]
    /// (`None` for in-memory databases). Lock order: the catalog lock
    /// is always taken before this mutex.
    durable: Option<Mutex<durable::Durability>>,
}

impl DbShared {
    /// Record a catalog write: bump the schema version and purge this
    /// database's plan-cache entries.
    fn invalidate_plans(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        plancache::purge_db(self.id);
    }
}

impl Drop for DbShared {
    fn drop(&mut self) {
        // Last handle gone: release the plan-cache slots (quietly — the
        // schema didn't change, the database did).
        plancache::forget_db(self.id);
    }
}

/// Shared-read access to a database's catalog (see
/// [`Database::catalog`]). Dereferences to [`Catalog`]; released on
/// drop.
pub struct CatalogRef<'a> {
    guard: RwLockReadGuard<'a, Catalog>,
}

impl std::ops::Deref for CatalogRef<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.guard
    }
}

/// Exclusive access to a database's catalog (see
/// [`Database::catalog_mut`]). Dropping the guard bumps the schema
/// version and invalidates the database's plan-cache entries, so direct
/// catalog surgery follows the same discipline as
/// [`Database::create_table`] / [`Database::insert`].
pub struct CatalogMut<'a> {
    guard: Option<RwLockWriteGuard<'a, Catalog>>,
    shared: &'a DbShared,
}

impl std::ops::Deref for CatalogMut<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        self.guard.as_deref().expect("guard present until drop")
    }
}

impl std::ops::DerefMut for CatalogMut<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        self.guard.as_deref_mut().expect("guard present until drop")
    }
}

impl Drop for CatalogMut<'_> {
    fn drop(&mut self) {
        // Bump the version before releasing the write lock: a reader
        // admitted right after the release already sees the new version
        // and can never revive a stale cached plan.
        self.shared.version.fetch_add(1, Ordering::SeqCst);
        drop(self.guard.take());
        plancache::purge_db(self.shared.id);
    }
}

/// An in-memory database: a catalog plus query execution.
///
/// A `Database` value is a cheap handle onto shared state — cloning it
/// (or sending a clone to another thread) yields another view of the
/// *same* catalog, plan-cache lineage and session counter. Read queries
/// on different handles run concurrently under a shared catalog lock;
/// catalog writes ([`create_table`](Database::create_table),
/// [`insert`](Database::insert), `ANALYZE`,
/// [`catalog_mut`](Database::catalog_mut)) take the lock exclusively
/// and wait for in-flight queries to drain.
///
/// Multi-statement clients should open a [`Session`] via
/// [`Database::connect`]; [`Database::execute`] is the equivalent
/// one-shot path.
#[derive(Clone)]
pub struct Database {
    shared: Arc<DbShared>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("id", &self.shared.id)
            .field("version", &self.shared.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Database::from_catalog(Catalog::new())
    }

    /// Wrap an existing catalog (e.g. one produced by
    /// [`tpch::generate`]).
    ///
    /// The admission limits come from the ambient configuration
    /// (`nra_engine::config::ambient`).
    pub fn from_catalog(catalog: Catalog) -> Database {
        Database::assemble(catalog, 0, None, engine::config::ambient().admission())
    }

    /// Common constructor behind [`Database::from_catalog`] and
    /// [`Database::open`]: durable opens restore the schema version to
    /// the last applied LSN.
    pub(crate) fn assemble(
        catalog: Catalog,
        version: u64,
        durable: Option<Mutex<durable::Durability>>,
        admission: AdmissionConfig,
    ) -> Database {
        Database {
            shared: Arc::new(DbShared {
                id: next_db_id(),
                catalog: RwLock::new(catalog),
                version: AtomicU64::new(version),
                admission: Mutex::new(Arc::new(AdmissionController::new(admission))),
                next_session: AtomicU64::new(1),
                durable,
            }),
        }
    }

    /// The database's process-unique id (plan-cache key component).
    pub(crate) fn id(&self) -> u64 {
        self.shared.id
    }

    /// Next session id, for [`Database::connect`].
    pub(crate) fn next_session_id(&self) -> u64 {
        self.shared.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Shared-read view of the catalog. Any number of guards can be
    /// live at once (queries read under the same lock); don't hold one
    /// across a catalog write on the same database, which needs the
    /// lock exclusively.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef {
            guard: self
                .shared
                .catalog
                .read()
                .unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Exclusive catalog access, waiting for in-flight queries to
    /// drain. Dropping the returned guard bumps the schema version and
    /// invalidates this database's cached plans.
    pub fn catalog_mut(&self) -> CatalogMut<'_> {
        CatalogMut {
            guard: Some(
                self.shared
                    .catalog
                    .write()
                    .unwrap_or_else(|e| e.into_inner()),
            ),
            shared: &self.shared,
        }
    }

    /// Replace the admission controller gating this database's queries
    /// (concurrency cap, aggregate memory reservations, queue timeout).
    /// In-flight permits stay with the controller that issued them; new
    /// queries see `config`. The default controller comes from the
    /// configured `NRA_MAX_CONCURRENT` / `NRA_ADMISSION_MEM` /
    /// `NRA_ADMISSION_TIMEOUT_MS` (unlimited when unset).
    pub fn set_admission(&self, config: AdmissionConfig) {
        let controller = Arc::new(AdmissionController::new(config));
        *self
            .shared
            .admission
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = controller;
    }

    /// The admission controller currently gating this database.
    pub fn admission(&self) -> Arc<AdmissionController> {
        self.shared
            .admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Create a table with the given columns and primary key.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<Column>,
        primary_key: &[&str],
    ) -> Result<(), NraError> {
        let mut table = Table::new(name, Schema::new(columns));
        if !primary_key.is_empty() {
            table.set_primary_key(primary_key)?;
        }
        self.add_table(table)
    }

    /// Register a fully-built [`Table`] (schema, primary key, and any
    /// pre-loaded rows and statistics). On a durable database the whole
    /// table is logged as one atomic `CreateTable` record before it
    /// becomes visible.
    pub fn add_table(&self, table: Table) -> Result<(), NraError> {
        let name = table.name();
        if name == "nra_sys" || name.starts_with(sys::PREFIX) {
            return Err(NraError::Sql(SqlError::bind(format!(
                "`nra_sys` is a reserved schema; cannot create table `{name}`"
            ))));
        }
        let mut guard = self.catalog_mut();
        if guard.contains(table.name()) {
            return Err(NraError::Storage(StorageError::DuplicateTable(
                table.name().to_string(),
            )));
        }
        // Write-ahead: the record is durable before the table exists.
        if self.is_durable() {
            self.durable_log(&storage::wal::WalRecord::CreateTable(table.clone()))?;
        }
        guard.add_table(table)?;
        drop(guard);
        self.after_durable_mutation();
        Ok(())
    }

    /// Insert rows into a table (validating types, arity, NOT NULL).
    pub fn insert(&self, table: &str, rows: Vec<Tuple>) -> Result<(), NraError> {
        let mut guard = self.catalog_mut();
        let t = guard.table_mut(table)?;
        if self.is_durable() {
            // Pre-validate every row so the logged record is exactly
            // what the in-memory apply will accept: an acknowledged
            // insert is all-or-nothing on disk and in memory.
            for row in &rows {
                t.data().validate(row)?;
            }
            self.durable_log(&storage::wal::WalRecord::Insert {
                table: table.to_string(),
                rows: rows.clone(),
            })?;
        }
        t.insert_many(rows)?;
        drop(guard);
        self.after_durable_mutation();
        Ok(())
    }

    /// Parse and bind a query without executing it.
    pub fn prepare(&self, sql: &str) -> Result<BoundQuery, NraError> {
        Ok(nra_sql::parse_and_bind(sql, &self.catalog())?)
    }

    /// The single query entry point: parse, plan and run `sql` under
    /// `options`, returning rows plus whatever artifacts were requested.
    ///
    /// Supports compound queries (`UNION`/`INTERSECT`/`EXCEPT [ALL]`)
    /// plus `ORDER BY` (ascending sorts place `NULL` first, descending
    /// last) and `LIMIT`: each `SELECT` block runs through the chosen
    /// engine, the combined result goes through the set-operation algebra
    /// (`nra_engine::ops::setops`).
    ///
    /// Parallelism: the call runs under the thread budget from
    /// [`QueryOptions::threads`] (falling back to the `NRA_THREADS`
    /// environment variable, else sequential). The partition-parallel
    /// executor is deterministic — rows, their order, and every profile
    /// counter except wall times and partition counts are identical at
    /// any thread count.
    ///
    /// Observability side effects match the old dedicated methods: a
    /// profile collector or tracer already installed on this thread is
    /// replaced when the corresponding option is set, and both are left
    /// disabled on return. Under [`QueryOptions::collect_trace`] the
    /// configured sinks also apply (`NRA_TRACE=1` mirrors to stderr,
    /// `NRA_TRACE_FILE=path` appends JSONL).
    ///
    /// Every statement reads one snapshot of the `NRA_*` environment
    /// (`nra_engine::config`); a malformed variable fails it with
    /// [`engine::EngineError::Config`].
    ///
    /// This is the one-shot path: it is a thin wrapper over a transient
    /// [`Session`] (id 0). Multi-statement clients should hold a real
    /// session from [`Database::connect`] instead — same machinery,
    /// plus per-session defaults and prepared statements.
    pub fn execute(&self, sql: &str, options: &QueryOptions) -> Result<QueryOutcome, NraError> {
        Session::one_shot(self).execute_with(sql, options)
    }

    /// `ANALYZE <table>`: recompute per-column statistics (distinct-value
    /// and null counts) used by the cardinality estimator, returning the
    /// summary as plan text. Counts as a catalog write for plan-cache
    /// purposes: fresh statistics can change strategy and estimate
    /// choices, so cached plans are invalidated.
    fn run_analyze(&self, table: &str, threads: usize) -> Result<QueryOutcome, NraError> {
        let stats = self.catalog().table(table)?.analyze();
        if self.is_durable() {
            // Statistics steer the planner; losing them across a
            // restart would silently change plan shapes, so ANALYZE is
            // logged like any other catalog mutation.
            self.durable_log(&storage::wal::WalRecord::Analyze {
                table: table.to_string(),
                stats: stats.clone(),
            })?;
        }
        self.shared.invalidate_plans();
        self.after_durable_mutation();
        nra_obs::metrics::both(|m| m.counter_add("nra_analyze_total", &[("table", table)], 1));
        let mut plan = format!("analyze {table}: {} row(s)\n", stats.row_count);
        for col in &stats.columns {
            plan.push_str(&format!(
                "  {}: ndv={} nulls={}\n",
                col.name, col.ndv, col.null_count
            ));
        }
        Ok(QueryOutcome::plan_only(plan, threads))
    }

    /// Parse and run a full (possibly compound) query through `engine`,
    /// returning the result and — for single-statement queries — the
    /// bound form of the statement for plan rendering.
    ///
    /// With a `cache_key` (the normalized statement), repeats are
    /// answered from the process-wide plan cache (keyed on this
    /// database's id plus the key, valid while the schema version
    /// matches): a hit skips the parser and binder entirely. Cache
    /// counters live in the global metrics scope only — whether a
    /// statement hits depends on process history, which must not leak
    /// into the thread-invariant per-query snapshot.
    fn run_statements(
        &self,
        cat: &Catalog,
        sql: &str,
        cache_key: Option<&str>,
        engine: Engine,
    ) -> Result<(Relation, Option<BoundQuery>), NraError> {
        let version = self.shared.version.load(Ordering::SeqCst);
        let cached = cache_key.and_then(|key| plancache::lookup(self.shared.id, version, key));
        let hit = cached.is_some();
        let (query, bound_first, bound_rest) = match cached {
            Some(plan) => {
                obs::trace::emit(|| obs::trace::TraceEvent::Governor {
                    action: "plan-cache".to_string(),
                    detail: "hit".to_string(),
                });
                (plan.query, plan.bound_first, plan.bound_rest)
            }
            None => {
                let query = nra_sql::parse_query(sql)?;
                let bound_first = nra_sql::bind(&query.first, cat)?;
                let bound_rest = query
                    .compounds
                    .iter()
                    .map(|part| nra_sql::bind(&part.stmt, cat))
                    .collect::<Result<Vec<_>, _>>()?;
                (query, bound_first, bound_rest)
            }
        };
        if let (Some(key), false) = (cache_key, hit) {
            plancache::insert(
                self.shared.id,
                version,
                key.to_string(),
                plancache::CachedPlan {
                    query: query.clone(),
                    bound_first: bound_first.clone(),
                    bound_rest: bound_rest.clone(),
                    strategy: strategy_label(engine, Some(&bound_first)),
                },
            );
        }
        let single = query.compounds.is_empty();
        // Seed the progress denominator from the planner's cardinality
        // estimates for the first block (compound arms only add to the
        // numerator, which the 99%-cap before `finish` absorbs).
        if let Some(p) = obs::progress::current() {
            let est = nra_core::estimate(&bound_first, cat);
            p.set_estimated(est.iter().map(|(_, v)| v).sum());
        }
        let mut exec_phase = obs::trace::phase(|| "execute".to_string());
        let mut rel = self.run_bound(cat, &bound_first, engine)?;
        for (part, bound) in query.compounds.iter().zip(&bound_rest) {
            let right = self.run_bound(cat, bound, engine)?;
            use nra_engine::ops::setops;
            use nra_sql::SetOpKind;
            rel = match (part.op, part.all) {
                (SetOpKind::Union, false) => setops::union(&rel, &right),
                (SetOpKind::Union, true) => setops::union_all(&rel, &right),
                (SetOpKind::Intersect, false) => setops::intersect(&rel, &right),
                (SetOpKind::Intersect, true) => setops::intersect_all(&rel, &right),
                (SetOpKind::Except, false) => setops::difference(&rel, &right),
                (SetOpKind::Except, true) => setops::difference_all(&rel, &right),
            }?;
        }
        if !query.order_by.is_empty() {
            let mut keys = Vec::new();
            for (expr, desc) in &query.order_by {
                let idx = match expr {
                    // SQL-style positional reference: ORDER BY 1.
                    nra_sql::ScalarExpr::Literal(nra_storage::Value::Int(n))
                        if *n >= 1 && (*n as usize) <= rel.schema().len() =>
                    {
                        *n as usize - 1
                    }
                    nra_sql::ScalarExpr::Column { qualifier, name } => {
                        let full = match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.clone(),
                        };
                        rel.schema().resolve(&full).map_err(NraError::Storage)?
                    }
                    other => {
                        return Err(NraError::Sql(SqlError::bind(format!(
                            "ORDER BY supports output columns and positions, not `{other}`"
                        ))))
                    }
                };
                keys.push((idx, *desc));
            }
            rel.rows_mut().sort_by(|a, b| {
                for &(idx, desc) in &keys {
                    let ord = a[idx].total_cmp(&b[idx]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = query.limit {
            rel.rows_mut().truncate(n);
        }
        exec_phase.set_rows(rel.len() as u64);
        drop(exec_phase);
        Ok((rel, single.then_some(bound_first)))
    }

    /// Execute a prepared (bound) single statement.
    fn run_bound(
        &self,
        cat: &Catalog,
        query: &BoundQuery,
        engine: Engine,
    ) -> Result<Relation, NraError> {
        Ok(match engine {
            Engine::NestedRelational(strategy) => nra_core::execute(query, cat, strategy)?,
            Engine::Baseline => nra_engine::baseline::execute(query, cat)?,
            Engine::Reference => nra_engine::reference::evaluate(query, cat)?,
        })
    }

    /// The one-line `EXPLAIN` text. For a compound query, explains the
    /// first `SELECT` block and notes the set operations applied on top.
    fn explain_text(&self, cat: &Catalog, sql: &str) -> Result<String, NraError> {
        let parsed = nra_sql::parse_query(sql)?;
        let suffix = if parsed.compounds.is_empty() {
            String::new()
        } else {
            format!(
                "; then {} set operation(s) over the per-block results",
                parsed.compounds.len()
            )
        };
        let bound = nra_sql::bind(&parsed.first, cat)?;
        let nr = match nra_core::auto_strategy(&bound) {
            Strategy::PositiveRewrite => "positive rewrite (semijoin cascade)",
            Strategy::BottomUpPushdown => "bottom-up with nest push-down",
            Strategy::BottomUp => "bottom-up",
            Strategy::Optimized => "single-sort pipelined cascade",
            Strategy::Original => "Algorithm 1 (two-pass)",
            Strategy::Auto => unreachable!("auto resolves to a concrete strategy"),
        };
        let baseline = nra_engine::baseline::describe(&bound, cat);
        Ok(format!(
            "nested relational: {nr}; baseline (System A): {baseline}{suffix}"
        ))
    }
}

/// Short machine-readable name of the strategy a query ran with, for
/// the query registry and slow-query log. `Auto` is resolved to the
/// concrete strategy when the bound query is available (single-statement
/// successes); otherwise it stays `auto`.
fn strategy_label(engine: Engine, bound: Option<&BoundQuery>) -> &'static str {
    match engine {
        Engine::Baseline => "baseline",
        Engine::Reference => "reference",
        Engine::NestedRelational(s) => match (s, bound) {
            (Strategy::Auto, Some(b)) => nra_core::auto_strategy(b),
            (s, _) => s,
        }
        .name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_storage::{ColumnType, Value};

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "x",
            vec![
                Column::not_null("k", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            &["k"],
        )
        .unwrap();
        db.insert(
            "x",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = db();
        let out = db
            .execute("select k from x where v is not null", &QueryOptions::new())
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.plan.is_none() && out.profile.is_none() && out.trace.is_none());
    }

    #[test]
    fn engines_agree() {
        let db = db();
        let sql = "select k from x where v not in (select v from x x2 where x2.k <> x.k)";
        let run = |engine| {
            db.execute(sql, &QueryOptions::new().engine(engine))
                .unwrap()
                .rows
        };
        let nr = run(Engine::default());
        let base = run(Engine::Baseline);
        let oracle = run(Engine::Reference);
        assert!(nr.multiset_eq(&oracle));
        assert!(base.multiset_eq(&oracle));
    }

    #[test]
    fn engine_names_parse_from_one_table() {
        let nr = Engine::NestedRelational;
        for (name, want) in [
            ("auto", Ok(nr(Strategy::Auto))),
            ("NR", Ok(nr(Strategy::Auto))),
            ("original", Ok(nr(Strategy::Original))),
            ("optimized", Ok(nr(Strategy::Optimized))),
            ("bottomup", Ok(nr(Strategy::BottomUp))),
            ("pushdown", Ok(nr(Strategy::BottomUpPushdown))),
            ("positive", Ok(nr(Strategy::PositiveRewrite))),
            ("baseline", Ok(Engine::Baseline)),
            ("native", Ok(Engine::Baseline)),
            ("oracle", Ok(Engine::Reference)),
            ("Reference", Ok(Engine::Reference)),
            ("bottom-up", Err("unknown engine `bottom-up`".to_string())),
        ] {
            assert_eq!(name.parse::<Engine>(), want, "{name}");
        }
    }

    #[test]
    fn explain_mentions_both_engines() {
        let db = db();
        let out = db
            .execute(
                "select k from x where v in (select v from x x2)",
                &QueryOptions::new().explain_only(true),
            )
            .unwrap();
        let s = out.plan.unwrap();
        assert!(s.contains("nested relational"));
        assert!(s.contains("System A"));
        assert_eq!(out.rows.len(), 0, "explain_only does not execute");
    }

    #[test]
    fn outcome_carries_requested_artifacts() {
        let db = db();
        let sql = "select k from x where v in (select v from x x2 where x2.k <> x.k)";
        let out = db
            .execute(
                sql,
                &QueryOptions::new()
                    .strategy(Strategy::Original)
                    .collect_profile(true)
                    .collect_trace(true)
                    .threads(1),
            )
            .unwrap();
        assert_eq!(out.threads, 1);
        let profile = out.profile.expect("profile requested");
        assert_eq!(profile.threads, 1);
        assert!(!profile.ops.is_empty());
        assert!(out.plan.expect("Algorithm 1 plan").contains("rows="));
        assert!(!out.trace.expect("trace requested").entries.is_empty());
    }

    #[test]
    fn analyze_statement_reports_stats() {
        let db = db();
        let out = db.execute("analyze x", &QueryOptions::new()).unwrap();
        let plan = out.plan.expect("analyze returns a summary");
        assert!(plan.contains("analyze x: 2 row(s)"), "{plan}");
        assert!(plan.contains("v: ndv=1 nulls=1"), "{plan}");
        let stats = db.catalog().table("x").unwrap().stats().unwrap();
        assert_eq!(stats.row_count, 2);
    }

    #[test]
    fn metrics_snapshot_counts_rows_and_outcome() {
        let db = db();
        let out = db
            .execute(
                "select k from x where v is not null",
                &QueryOptions::new()
                    .strategy(Strategy::Original)
                    .collect_metrics(true),
            )
            .unwrap();
        let snap = out.metrics.expect("metrics requested");
        assert_eq!(snap.counter_total("nra_rows_produced_total"), 1);
        use nra_obs::metrics::Metric;
        assert_eq!(
            snap.get("nra_queries_total", &[("outcome", "ok")]),
            Some(&Metric::Counter(1))
        );
        assert!(snap.counter_total("nra_op_rows_out_total") > 0);
        assert!(out.profile.is_none(), "profile was not requested");
    }

    #[test]
    fn errors_are_surfaced_with_sources() {
        let db = db();
        let err = db
            .execute("select nope from x", &QueryOptions::new())
            .unwrap_err();
        assert!(std::error::Error::source(&err).is_some(), "{err}");
        assert!(db.execute("not sql at all", &QueryOptions::new()).is_err());
        assert!(db
            .insert("x", vec![vec![Value::Null, Value::Null]])
            .is_err());
        assert!(db.create_table("x", vec![], &[]).is_err());
    }
}
