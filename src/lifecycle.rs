//! One statement's lifecycle (`DESIGN.md` §14). [`execute`] is the path
//! every statement takes, in order:
//!
//! 1. one [`Config`] snapshot (a malformed `NRA_*` variable fails the
//!    statement here), applied as the statement's thread budget and
//!    batch width;
//! 2. metadata statements (`ANALYZE`, `nra_sys.*`, `EXPLAIN`) return
//!    without admission or observability;
//! 3. [`QueryContext::begin`] takes the admission permit, the catalog
//!    read guard and every observability guard;
//! 4. the statement runs, panics contained;
//! 5. [`QueryContext::finish`] releases the guards and builds the one
//!    terminal [`QueryRecord`]; the registry row (`nra_sys.queries`), the
//!    slow-log line, `Profile::outcome` and the query-level metrics are
//!    projections of it.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nra_core::Strategy;
use nra_engine::config::Config;
use nra_engine::governor::{self, AdmissionPermit, GovernorGuard};
use nra_engine::{exec, vec, EngineError, Governor};
use nra_obs::metrics::{self, Registry};
use nra_obs::progress::{self, ProgressGuard, ProgressState};
use nra_obs::queryreg::{self, QueryRecord};
use nra_obs::slowlog::SlowRecord;
use nra_obs::trace::{self, RingHandle, TraceEvent};
use nra_obs::Profile;
use nra_sql::BoundQuery;
use nra_storage::{iosim, Relation};

use crate::{
    strategy_label, sys, CatalogRef, Database, Engine, NraError, QueryOptions, QueryOutcome,
};

/// A statement's result plus, for a single statement, its bound form.
type Answer = Result<(Relation, Option<BoundQuery>), NraError>;

/// Run one statement through its whole lifecycle (see the module docs).
pub(crate) fn execute(
    db: &Database,
    sql: &str,
    options: &QueryOptions,
) -> Result<QueryOutcome, NraError> {
    let config = Config::from_env()?;
    // An explicit option, then an override already on the thread, beat
    // the snapshot; workers inherit the batch width from the scheduler.
    let budget = options.threads.or_else(exec::threads_override);
    let _threads = exec::set_threads(Some(budget.or(config.threads).unwrap_or(1)));
    let width = vec::batch_rows_override().or(config.batch_rows);
    let _batch = vec::set_batch_rows(Some(width.unwrap_or(vec::DEFAULT_BATCH_ROWS)));
    let threads = exec::threads();

    if let Some(table) = nra_sql::parse_analyze(sql)? {
        return db.run_analyze(&table, threads);
    }
    // `nra_sys` queries re-enter this path over an overlay catalog, with
    // the introspection flag set so they never register themselves.
    if !options.introspection && sys::mentions_sys(sql) {
        if let Some(result) = sys::dispatch(db, sql, options) {
            return result;
        }
    }
    if options.explain_only {
        let plan = db.explain_text(&db.catalog(), sql)?;
        return Ok(QueryOutcome::plan_only(plan, threads));
    }
    let ctx = QueryContext::begin(db, sql, options, &config, threads)?;
    let answer = ctx.run(db, sql);
    ctx.finish(answer)
}

/// Everything one executing statement holds, acquired in lifecycle
/// order by [`QueryContext::begin`]. Like a binder owning its statement's
/// catalog guard, one context serves exactly one statement.
pub(crate) struct QueryContext<'a> {
    options: &'a QueryOptions,
    config: &'a Config,
    /// Normalized once: the registry row, slow log and plan-cache key.
    statement: String,
    threads: usize,
    started: Instant,
    query_metrics: Option<Arc<Registry>>,
    trace_ring: Option<RingHandle>,
    /// Progress and registry id; `None` for introspection statements,
    /// which stay out of the registry and the slow log.
    registered: Option<(u64, Arc<ProgressState>)>,
    want_profile: bool,
    own_io: bool,
    governor: Option<Arc<Governor>>,
    governor_guard: Option<GovernorGuard>,
    // RAII guards, declared in release order (fields drop in order).
    _progress: ProgressGuard,
    _metrics: metrics::QueryGuard,
    catalog: CatalogRef<'a>,
    _permit: AdmissionPermit,
}

impl<'a> QueryContext<'a> {
    /// Admit the statement (a refused one fails with
    /// [`EngineError::Admission`] before any per-query state exists),
    /// take the catalog guard, and arm the observability channels.
    fn begin(
        db: &'a Database,
        sql: &str,
        options: &'a QueryOptions,
        config: &'a Config,
        threads: usize,
    ) -> Result<QueryContext<'a>, NraError> {
        // The permit reserves exactly the budget the query runs under.
        let reserve = options.mem_limit_bytes.or(config.mem_limit).unwrap_or(0);
        let permit = db.admission().admit(reserve)?;
        let catalog = db.catalog();
        let query_metrics = (options.collect_metrics || config.metrics_path.is_some())
            .then(|| Arc::new(Registry::new()));
        let metrics_guard = metrics::install_query(query_metrics.clone());
        let trace_ring = options.collect_trace.then(|| {
            let (ring, handle) = trace::RingSink::with_capacity(4096);
            let mut sinks: Vec<Box<dyn trace::TraceSink>> = vec![Box::new(ring)];
            let file = config.trace_file.as_deref();
            sinks.extend(trace::configured_sinks(config.trace_stderr, file));
            trace::start(sinks);
            trace::emit(|| TraceEvent::QueryStart {
                sql: sql.to_string(),
            });
            handle
        });
        let started = Instant::now();
        let statement = nra_sql::normalize::normalize(sql);
        let progress = (!options.introspection).then(|| Arc::new(ProgressState::new()));
        let progress_guard = progress::install(progress.clone());
        let registered = progress.map(|p| (queryreg::global().register(&statement, p.clone()), p));
        // Per-operator stats feed the profile, the per-query metrics and
        // the Q-error actuals behind the trace's summary.
        let want_profile =
            options.collect_profile || query_metrics.is_some() || options.collect_trace;
        if want_profile {
            nra_obs::enable();
        }
        let own_io = options.simulate_io && !iosim::is_enabled();
        if own_io {
            iosim::enable(iosim::IoConfig::default());
        }
        let governor = options.governor(config).map(Arc::new);
        let governor_guard = Some(governor::install(governor.clone()));
        Ok(QueryContext {
            options,
            config,
            statement,
            threads,
            started,
            query_metrics,
            trace_ring,
            registered,
            want_profile,
            own_io,
            governor,
            governor_guard,
            _progress: progress_guard,
            _metrics: metrics_guard,
            catalog,
            _permit: permit,
        })
    }

    /// Run the statement. A checkpoint before any work stops plans that
    /// never reach an instrumented loop (a cancelled token, a zero
    /// timeout); a panic escaping the worker harness becomes a
    /// structured error, and the unwind runs the scope guards.
    fn run(&self, db: &Database, sql: &str) -> Answer {
        governor::checkpoint("query-start")?;
        let cache_key = self
            .options
            .plan_cache_enabled()
            .then_some(self.statement.as_str());
        let engine = self.options.engine;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.run_statements(&self.catalog, sql, cache_key, engine)
        }))
        .unwrap_or_else(|payload| {
            let message = exec::panic_message(payload.as_ref());
            Err(EngineError::WorkerPanicked {
                site: "query".to_string(),
                message,
            }
            .into())
        })
    }

    /// Release the guards, build the statement's [`QueryRecord`] and
    /// project it into every channel.
    fn finish(mut self, answer: Answer) -> Result<QueryOutcome, NraError> {
        let mut profile = self.want_profile.then(nra_obs::disable).flatten();
        if self.own_io {
            iosim::disable();
        }
        // Dropping the governor guard flushes worker-pending charges, so
        // `mem_used()` is now the query's memory high-water mark.
        drop(self.governor_guard.take());
        let mem_bytes = self.governor.as_ref().map_or(0, |g| g.mem_used());
        if self.governor.is_some() {
            let detail = format!("{mem_bytes} bytes");
            trace::emit(|| TraceEvent::Governor {
                action: "mem-high-water".to_string(),
                detail,
            });
        }
        // Cardinality feedback: planner estimates vs. measured actuals.
        let bound = answer.as_ref().ok().and_then(|(_, b)| b.as_ref());
        let estimates = bound
            .filter(|_| profile.is_some())
            .map(|b| nra_core::estimate(b, &self.catalog));
        let qerror_x100 = match (&profile, &estimates) {
            (Some(p), Some(est)) => record_qerrors(p, est),
            _ => 0,
        };

        let record = QueryRecord {
            id: self.registered.as_ref().map_or(0, |(id, _)| *id),
            sql: std::mem::take(&mut self.statement),
            outcome: answer
                .as_ref()
                .err()
                .map_or("ok", NraError::kind)
                .to_string(),
            wall_ms: self.started.elapsed().as_millis() as u64,
            rows: answer.as_ref().map_or(0, |(rel, _)| rel.len() as u64),
            threads: self.threads as u64,
            qerror_x100,
            mem_bytes,
            strategy: strategy_label(self.options.engine, bound).to_string(),
            session: self.options.session,
        };
        if let Some(p) = &mut profile {
            p.outcome = Some(record.outcome.clone());
            p.threads = self.threads;
        }
        self.record_metrics(&record, profile.as_ref());
        // Final progress is forced to 100% with the profile's row totals
        // (the governor-cadence ticks undercount by design).
        if let Some((_, progress)) = &self.registered {
            progress.raise_mem(record.mem_bytes);
            let processed = profile
                .as_ref()
                .map_or(0, |p| p.ops.iter().map(|(_, s)| s.rows_in).sum());
            let phase = match record.outcome.as_str() {
                "ok" => "done",
                failed => failed,
            };
            progress.finish(processed, phase);
            queryreg::global().complete(record.clone());
        }

        let trace = self.trace_ring.take().map(|ring| {
            if let Ok((rel, _)) = &answer {
                let (rows, wall_ns) = (rel.len() as u64, self.started.elapsed().as_nanos() as u64);
                trace::emit(|| TraceEvent::QueryEnd { rows, wall_ns });
            }
            trace::stop();
            ring.take()
        });
        // The `NRA_METRICS` sink gets failed queries too: that is when
        // telemetry matters.
        let metrics = self.query_metrics.as_ref().map(|r| r.snapshot());
        if let (Some(path), Some(snap)) = (&self.config.metrics_path, &metrics) {
            append_line(path, &snap.to_jsonl());
        }

        let (rows, bound) = match answer {
            Ok(v) => v,
            Err(e) => {
                self.log_if_slow(&record, None, profile.as_ref());
                return Err(e);
            }
        };
        let requested = profile.as_ref().filter(|_| self.options.collect_profile);
        let plan = match (requested, &bound, self.options.engine) {
            (Some(p), Some(b), Engine::NestedRelational(Strategy::Original)) => {
                Some(analyzed_plan(b, p, estimates.as_ref(), rows.len()))
            }
            _ => None,
        };
        self.log_if_slow(&record, plan.as_deref(), profile.as_ref());
        Ok(QueryOutcome {
            rows,
            plan,
            profile: profile.filter(|_| self.options.collect_profile),
            metrics,
            trace,
            threads: self.threads,
            progress: self.registered.as_ref().map(|(_, p)| p.snapshot()),
        })
    }

    /// The record's query-level counters, in both scopes; all derived
    /// from the record or the merged profile, never from scheduling, so
    /// the per-query scope stays thread-invariant. The memory high-water
    /// gauge is process-level only (its peak depends on scheduling).
    fn record_metrics(&self, record: &QueryRecord, profile: Option<&Profile>) {
        let outcome = record.outcome.as_str();
        metrics::both(|m| {
            m.counter_add("nra_queries_total", &[("outcome", outcome)], 1);
            match outcome {
                "ok" => m.counter_add("nra_rows_produced_total", &[], record.rows),
                _ => m.counter_add("nra_errors_total", &[("variant", outcome)], 1),
            }
            if let Some(p) = profile {
                record_op_metrics(m, p);
            }
        });
        if self.governor.is_some() {
            metrics::global().gauge_max("nra_query_mem_high_water_bytes", &[], record.mem_bytes);
        }
    }

    /// The slow-query projection: a registered statement at or over the
    /// threshold (`QueryOptions::slow_ms`, else `NRA_SLOW_MS`; `0` logs
    /// everything) is counted and, given a destination, logged. Counted
    /// after the per-query snapshot, which must not depend on timing.
    fn log_if_slow(&self, record: &QueryRecord, plan: Option<&str>, profile: Option<&Profile>) {
        let threshold = self.options.slow_ms.or(self.config.slow_ms);
        let (Some((_, progress)), Some(threshold)) = (&self.registered, threshold) else {
            return;
        };
        if record.wall_ms < threshold {
            return;
        }
        metrics::both(|m| m.counter_add("nra_slow_queries_total", &[], 1));
        let path = self.options.slow_log.as_ref();
        if let Some(path) = path.or(self.config.slow_log.as_ref()) {
            let progress = &progress.snapshot();
            let line = SlowRecord {
                record,
                plan,
                profile,
                progress,
            };
            append_line(path, &line.to_jsonl());
        }
    }
}

/// Append `line` to the file at `path`, creating it; failures are
/// dropped (telemetry must never fail a query).
fn append_line(path: &Path, line: &str) {
    use std::io::Write;
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
}

/// Per-node Q-errors (×100; 100 = perfect) of the estimated nodes the
/// profile measured: summarized as a trace event and observed in both
/// metrics scopes. Returns the worst one, or 0 when no node pairs up.
fn record_qerrors(profile: &Profile, estimates: &nra_core::CardEstimates) -> u64 {
    let qerrs: Vec<u64> = estimates
        .iter()
        .filter_map(|(key, e)| {
            merged_rows_out(profile, key).map(|act| nra_core::qerror_x100(e, act))
        })
        .collect();
    if qerrs.is_empty() {
        return 0;
    }
    let (nodes, max_x100) = (qerrs.len(), qerrs.iter().copied().max().unwrap_or(100));
    let mean_x100 = qerrs.iter().sum::<u64>() / nodes as u64;
    trace::emit(|| TraceEvent::QErrorSummary {
        nodes,
        max_x100,
        mean_x100,
    });
    metrics::both(|m| {
        qerrs
            .iter()
            .for_each(|q| m.observe("nra_qerror_x100", &[], *q))
    });
    max_x100
}

/// The `EXPLAIN ANALYZE` text. Rendered only when the executed pipeline
/// matches the textbook operator tree node for node: Algorithm 1 (the
/// two-pass original strategy) on a single statement.
fn analyzed_plan(
    bound: &BoundQuery,
    profile: &Profile,
    estimates: Option<&nra_core::CardEstimates>,
    rows: usize,
) -> String {
    let tree = nra_core::TreeExpr::build(bound);
    let mut out = tree.render_plan_analyzed_with_estimates(profile, estimates);
    out.push_str(&format!(
        "-- {rows} row(s); total operator time {:.3} ms\n",
        profile.total_wall_ns() as f64 / 1e6
    ));
    if let Some(io) = &profile.io {
        out.push_str(&format!(
            "-- io: {} sequential page(s), {} random hit(s), {} random miss(es)\n",
            io.seq_pages, io.rand_hits, io.rand_misses
        ));
    }
    out
}

/// Sum of `rows_out` over every profile entry matching `prefix` exactly
/// or with a `[kind]` suffix (`b2/nest` matches `b2/nest[sort]`); `None`
/// when nothing matched — the estimator may cover nodes an optimized
/// pipeline fused away.
fn merged_rows_out(profile: &Profile, prefix: &str) -> Option<u64> {
    let mut matched = profile
        .ops
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix(prefix)
                .is_some_and(|k| k.is_empty() || k.starts_with('['))
        })
        .peekable();
    matched.peek()?;
    Some(matched.map(|(_, s)| s.rows_out).sum())
}

/// Project a merged profile into per-operator counters. Wall times and
/// partition counts stay out: every counter here is identical at any
/// thread count, which keeps the per-query scope deterministic.
fn record_op_metrics(reg: &Registry, profile: &Profile) {
    for (name, s) in &profile.ops {
        let op = ("op", name.as_str());
        reg.counter_add("nra_op_invocations_total", &[op], s.invocations);
        reg.counter_add("nra_op_rows_in_total", &[op], s.rows_in);
        reg.counter_add("nra_op_rows_out_total", &[op], s.rows_out);
        let sparse = [
            ("nra_op_hash_entries_total", s.hash_entries, None),
            ("nra_op_hash_bytes_total", s.hash_bytes, None),
            ("nra_op_nest_groups_total", s.nest_groups, None),
            ("nra_op_padded_total", s.padded, None),
            ("nra_op_link_outcomes_total", s.pass, Some("pass")),
            ("nra_op_link_outcomes_total", s.fail, Some("fail")),
            ("nra_op_link_outcomes_total", s.unknown, Some("unknown")),
        ];
        for (metric, count, outcome) in sparse.into_iter().filter(|(_, n, _)| *n > 0) {
            match outcome {
                Some(o) => reg.counter_add(metric, &[op, ("outcome", o)], count),
                None => reg.counter_add(metric, &[op], count),
            }
        }
    }
}
