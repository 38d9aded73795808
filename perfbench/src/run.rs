//! One benchmark run: set up, warm up, measure, (trace,) recover, and
//! turn what was seen into named metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

use crate::env::{self, counter, Env, Provenance, SetupTimes};
use crate::exact;
use crate::layers::{self, Rep, Traced, Tracer, STRATEGIES};
use crate::measure::{self, ReadStats, WriteStats};
use crate::stats::{median, percentile, tail, Tail};
use crate::verify::Fingerprint;
use crate::workloads::{self, Workload, INSERT_RATE, PROBE_INSERTS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Reopens of the final directory; `recovery_s` is their median.
const RECOVERY_REPS: usize = 7;
/// Requests each connection sends before timing starts.
const WARMUP_REQUESTS: usize = 48;
/// Repetitions of each traced statement.
const TRACE_REPS: usize = 4;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: f64,
}

/// A named metric with its unit, and the sample count and percentile
/// behind it where those apply.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
    pub note: String,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: None,
            note: String::new(),
        }
    }

    fn n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }

    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub provenance: Provenance,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures, drift and other findings worth a line each.
    pub findings: Vec<String>,
    /// Human-readable sections printed before the metrics.
    pub sections: Vec<String>,
    pub spans_file: Option<PathBuf>,
}

/// Where runs keep their directories, spans, results and exact counts.
pub const OUT_DIR: &str = ".perfbench";

pub fn run(args: &Args) -> Result<Outcome, String> {
    let out = Path::new(OUT_DIR);
    let run_dir = out.join(format!(
        "run-{}-{}-trace{}",
        std::process::id(),
        args.workload.name(),
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let result = run_in(args, out, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(args: &Args, out: &Path, run_dir: &Path) -> Result<Outcome, String> {
    let provenance = Provenance::collect();
    let mut findings = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up, repeated; the last environment is the one measured.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<Env> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.server.shutdown();
            drop(old.db);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let (env, times) = env::setup(&run_dir.join(format!("db{rep}")), args.seed, args.scale)?;
        setups.push(times);
        kept = Some(env);
    }
    let env = kept.expect("at least one set-up");
    let addr = env.server.addr();

    // Inputs and expected answers, outside any timed region.
    let q1 = workloads::q1_request(&env.db, args.scale).map_err(|e| e.to_string())?;
    let acked_orders = Arc::new(AtomicUsize::new(0));
    let inserts = match args.workload {
        Workload::IngestRead => (INSERT_RATE * args.seconds as f64).round() as usize,
        Workload::PaperSubq | Workload::PointMix => PROBE_INSERTS,
    };
    let stream = workloads::write_stream(&env.db.catalog(), args.seed, inserts);
    let source = match args.workload {
        Workload::PaperSubq => workloads::paper_source(&env.db, args.scale, args.seed),
        Workload::PointMix => workloads::point_source(&env.db, args.seed),
        Workload::IngestRead => {
            workloads::ingest_source(&env.db, q1.clone(), &stream, Arc::clone(&acked_orders))
        }
    }
    .map_err(|e| format!("expected answers: {e}"))?;
    let mut clients = measure::connect(addr, args.workload.connections())?;

    // Warm-up: a fixed number of verified requests per connection.
    let cache_before_warmup = plan_cache_counters();
    let warm = measure::warmup(&mut clients, &source, args.seed ^ 0x6_0000, WARMUP_REQUESTS);
    let cache_after_warmup = plan_cache_counters();
    attempted += warm.attempted;
    failed += warm.failed();
    findings.extend(warm.first_problem.clone());

    // The measured phase. `ingest-read` runs its insert stream beside
    // the readers; the read-only workloads run theirs afterwards.
    let wal_before = wal_counters();
    let queued_before = counter("nra_admission_queued_total");
    let duration = Duration::from_secs(args.seconds);
    let (reads, writes_during) = if args.workload == Workload::IngestRead {
        let (r, w) = measure::readers(&mut clients, &source, args.seed, duration, || {
            measure::writer(&env.db, &stream, Some(INSERT_RATE), &acked_orders)
        });
        (r, Some(w))
    } else {
        (
            measure::readers(&mut clients, &source, args.seed, duration, || ()).0,
            None,
        )
    };
    drop(clients);
    let cache_after = plan_cache_counters();
    let queued = counter("nra_admission_queued_total") - queued_before;
    attempted += reads.attempted;
    failed += reads.failed();
    findings.extend(reads.first_problem.clone());

    // The traced replay, on the quiescent database.
    let mut traced: Vec<Traced> = Vec::new();
    let mut tracer = Tracer::default();
    let mut spans_file = None;
    let mut repeat_drift = 0;
    if args.trace {
        // In-process calls run on a thread of their own, as the server
        // runs each connection: on the main thread the same kernel call
        // measured about 20% slower, a gap that closed when the process
        // ran with a single allocator arena.
        let mut client = layers::traced_client(addr)?;
        let sample = source.sample(args.workload.trace_sample(), args.seed);
        let db = &env.db;
        let tracer_ref = &mut tracer;
        let results = std::thread::scope(|s| {
            s.spawn(move || {
                sample
                    .iter()
                    .map(|req| {
                        layers::trace_statement(tracer_ref, &mut client, db, req, TRACE_REPS)
                    })
                    .collect::<Vec<_>>()
            })
            .join()
        })
        .map_err(|_| "traced replay panicked".to_string())?;
        for result in results {
            attempted += 1;
            match result {
                Ok((l, drift)) => {
                    repeat_drift += drift.len();
                    findings.extend(drift);
                    traced.push(l);
                }
                Err(problem) => {
                    failed += 1;
                    findings.push(problem);
                }
            }
        }
        let path = out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        spans_file = Some(path);
    }

    let writes = match writes_during {
        Some(w) => w,
        None => measure::writer(&env.db, &stream, None, &acked_orders),
    };
    let wal = wal_counters().minus(&wal_before);
    attempted += writes.attempted;
    failed += writes.errors;
    findings.extend(writes.first_problem.clone());

    // Durability: stop serving, drop every handle, reopen the directory.
    env.server.shutdown();
    drop(env.db);
    let recovery = measure::reopen(&env.dir, RECOVERY_REPS)?;
    let missing = measure::missing_acked(&recovery.db, &stream, &writes.acked);
    attempted += writes.acked.len() as u64;
    failed += missing.len() as u64;
    if let Some(&i) = missing.first() {
        findings.push(format!(
            "{} acknowledged insert(s) missing after recovery (first: #{i} into {})",
            missing.len(),
            stream.writes[i].table
        ));
    }
    attempted += 1;
    match recovery.db.execute(&q1.sql, &nra::QueryOptions::new()) {
        Ok(o) if Fingerprint::of_relation(&o.rows) == q1.expect => {}
        Ok(o) => {
            failed += 1;
            findings.push(format!(
                "{} after recovery: {} row(s), expected {}",
                q1.label,
                o.rows.len(),
                q1.expect.rows
            ));
        }
        Err(e) => {
            failed += 1;
            findings.push(format!("{} after recovery: {e}", q1.label));
        }
    }
    let stored = env::dir_bytes(&env.dir) as f64;
    let user = workloads::catalog_user_bytes(&recovery.db.catalog()) as f64;
    drop(recovery.db);

    // Exact counts, compared with earlier runs of the same inputs.
    let mut counts = vec![
        ("wal.appends".to_string(), wal.appends),
        ("wal.fsyncs".to_string(), wal.fsyncs),
        ("wal.bytes".to_string(), wal.bytes),
        ("storage.checkpoints".to_string(), wal.checkpoints),
        ("storage.replayed_records".to_string(), recovery.replayed),
    ];
    if args.workload == Workload::PaperSubq {
        let warm_cache = cache_after_warmup.minus(&cache_before_warmup);
        let measured_cache = cache_after.minus(&cache_after_warmup);
        counts.push(("plan_cache.warmup_misses".into(), warm_cache.misses));
        counts.push(("plan_cache.measured_misses".into(), measured_cache.misses));
        counts.push((
            "plan_cache.evictions".into(),
            warm_cache.evictions + measured_cache.evictions,
        ));
    }
    if args.trace {
        counts.push((
            "trace.scan_rows_examined".into(),
            traced.iter().map(|l| l.scan_rows_in).sum(),
        ));
        counts.push((
            "trace.result_rows".into(),
            traced.iter().map(|l| l.rows as u64).sum(),
        ));
    }
    let key = format!(
        "{}-seed{}-scale{}-s{}-trace{}-{}",
        args.workload.name(),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace),
        provenance.source_digest
    );
    let drift = exact::compare_and_store(&out.join("exact"), &key, &counts);
    let drift_count = drift.len() + repeat_drift;
    findings.extend(drift);

    let mut sections = vec![load_section(args, &reads, &writes, &setups)];
    let mut metrics = if args.trace {
        let cache = cache_after.minus(&cache_after_warmup);
        sections.push(layer_section(&traced, &reads, &tracer));
        layer_metrics(LayerInputs {
            traced: &traced,
            reads: &reads,
            writes: &writes,
            setups: &setups,
            cache,
            queued,
            wal,
            replayed: recovery.replayed,
            drift_count,
        })
    } else {
        end_to_end_metrics(
            &reads,
            &recovery.open_s,
            stored / user,
            &setups,
            attempted,
            failed,
        )?
    };
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        failed += 1;
        findings.push(format!("{} came out as {}; reported as 0", m.name, m.value));
        m.value = 0.0;
    }
    let _ = std::fs::remove_dir_all(&env.dir);
    Ok(Outcome {
        provenance,
        metrics,
        attempted,
        failed,
        findings,
        sections,
        spans_file,
    })
}

/// Highest percentile `query_tail_ms` reports. On the reference host the
/// p99 of a 20-second run tracked its slowest second and spread 0.3
/// between runs of one workload; the p95 needs a slow stretch over a
/// quarter of the run to move. The report still prints the p99.
const QUERY_TAIL_TOP: f64 = 95.0;

fn query_tail(xs: &[f64]) -> Result<Metric, String> {
    let Tail {
        percentile,
        value,
        n,
    } = tail(xs, QUERY_TAIL_TOP)
        .ok_or_else(|| format!("query_tail_ms: only {} sample(s), need 20", xs.len()))?;
    let p99 = tail(xs, 99.0)
        .filter(|t| t.percentile == 99.0)
        .map_or(String::new(), |t| format!("; p99 {:.4}", t.value));
    Ok(Metric::new("query_tail_ms", value, "ms")
        .n(n)
        .note(format!("p{percentile}{p99}")))
}

fn end_to_end_metrics(
    reads: &ReadStats,
    open_s: &[f64],
    stored_per_user: f64,
    setups: &[SetupTimes],
    attempted: u64,
    failed: u64,
) -> Result<Vec<Metric>, String> {
    let q = &reads.latencies_ms;
    let need = |xs: &[f64], what: &str| median(xs).ok_or_else(|| format!("no {what} completed"));
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    Ok(vec![
        Metric::new("query_p50_ms", need(q, "read")?, "ms").n(q.len()),
        query_tail(q)?,
        Metric::new("throughput_qps", q.len() as f64 / reads.elapsed_s, "1/s")
            .n(q.len())
            .note(format!("over {:.2} s", reads.elapsed_s)),
        Metric::new("recovery_s", need(open_s, "reopen")?, "s").n(open_s.len()),
        Metric::new("bytes_stored_per_user_byte", stored_per_user, "ratio"),
        Metric::new(
            "peak_rss_mb",
            env::peak_rss_mb().ok_or("VmHWM unavailable")?,
            "MB",
        ),
        Metric::new(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        )
        .n(attempted as usize)
        .note(format!("{failed} failed")),
        Metric::new("setup_s", need(&setup, "set-up")?, "s").n(setup.len()),
    ])
}

/// Deltas of the global plan-cache counters.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheCounters {
    fn minus(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

fn plan_cache_counters() -> CacheCounters {
    CacheCounters {
        hits: counter("nra_plan_cache_hits_total"),
        misses: counter("nra_plan_cache_misses_total"),
        evictions: counter("nra_plan_cache_evictions_total"),
    }
}

/// Deltas of the global WAL and checkpoint counters.
#[derive(Debug, Clone, Copy, Default)]
struct WalCounters {
    appends: u64,
    fsyncs: u64,
    bytes: u64,
    checkpoints: u64,
}

impl WalCounters {
    fn minus(&self, earlier: &WalCounters) -> WalCounters {
        WalCounters {
            appends: self.appends - earlier.appends,
            fsyncs: self.fsyncs - earlier.fsyncs,
            bytes: self.bytes - earlier.bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

fn wal_counters() -> WalCounters {
    WalCounters {
        appends: counter("nra_wal_appends_total"),
        fsyncs: counter("nra_wal_fsyncs_total"),
        bytes: counter("nra_wal_bytes_total"),
        checkpoints: counter("nra_checkpoints_total"),
    }
}

struct LayerInputs<'a> {
    traced: &'a [Traced],
    reads: &'a ReadStats,
    writes: &'a WriteStats,
    setups: &'a [SetupTimes],
    cache: CacheCounters,
    queued: u64,
    wal: WalCounters,
    replayed: u64,
    drift_count: usize,
}

/// Median across statements of each statement's median over its
/// repetitions.
fn med_of(traced: &[Traced], f: &dyn Fn(&Rep) -> f64) -> f64 {
    median(&traced.iter().map(|t| t.med(f)).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn layer_metrics(i: LayerInputs<'_>) -> Vec<Metric> {
    let t = i.traced;
    let n = t.len();
    let m = |name: &str, f: &dyn Fn(&Rep) -> f64, unit: &'static str| {
        Metric::new(name, med_of(t, f), unit).n(n)
    };
    let per_row: Vec<f64> = t
        .iter()
        .map(|s| s.med(&|r| r.wire_ms()) * 1e3 / s.rows.max(1) as f64)
        .collect();
    let mut out = vec![
        m("server.wire_ms", &|l| l.wire_ms(), "ms"),
        Metric::new(
            "server.wire_us_per_row",
            median(&per_row).unwrap_or(0.0),
            "us",
        )
        .n(n),
        m("facade.residual_ms", &|l| l.residual_ms(), "ms"),
    ];
    let lookups = i.cache.hits + i.cache.misses;
    out.push(
        Metric::new(
            "facade.plan_cache_hit_ratio",
            i.cache.hits as f64 / lookups.max(1) as f64,
            "ratio",
        )
        .n(lookups as usize),
    );
    out.push(Metric::new(
        "facade.plan_cache_evictions",
        i.cache.evictions as f64,
        "count",
    ));
    let queries = i.reads.attempted.max(1);
    out.push(
        Metric::new(
            "facade.admission_queued",
            i.queued as f64 / queries as f64,
            "1/query",
        )
        .n(queries as usize),
    );
    out.extend([
        m("sql.parse_us", &|l| l.parse_us, "us"),
        m("sql.bind_us", &|l| l.bind_us, "us"),
        m(
            "obs.profile_overhead_ratio",
            &|l| l.profiled_ms / l.kernel_ms,
            "ratio",
        ),
        m("core.decide_us", &|l| l.decide_us, "us"),
        m("core.kernel_ms", &|l| l.kernel_ms, "ms"),
        m("core.nest_ms", &|l| l.nest_ms, "ms"),
        m("core.link_ms", &|l| l.link_ms, "ms"),
        m("core.unattributed_ms", &|l| l.unattributed_ms(), "ms"),
    ]);
    for s in STRATEGIES {
        let legal: Vec<f64> = t
            .iter()
            .filter_map(|l| {
                l.strategy_ms
                    .iter()
                    .find(|(x, _)| *x == s)
                    .map(|(_, ms)| *ms)
            })
            .collect();
        out.push(
            Metric::new(
                format!("core.kernel_ms.{}", s.name()),
                median(&legal).unwrap_or(0.0),
                "ms",
            )
            .n(legal.len())
            .note(if legal.is_empty() {
                "rejected by every sampled statement"
            } else {
                ""
            }),
        );
    }
    let regret: Vec<f64> = t
        .iter()
        .map(|s| {
            let auto = s.med(&|r| r.kernel_ms);
            let best = s.strategy_ms.iter().map(|(_, ms)| *ms).fold(auto, f64::min);
            auto / best
        })
        .collect();
    out.push(Metric::new("core.auto_regret", median(&regret).unwrap_or(0.0), "ratio").n(n));
    let native: Vec<f64> = t.iter().map(Traced::native_over_nr).collect();
    out.push(
        Metric::new(
            "core.native_over_nr",
            median(&native).unwrap_or(0.0),
            "ratio",
        )
        .n(n),
    );
    out.extend([
        m("engine.scan_ms", &|l| l.scan_ms, "ms"),
        m("engine.join_ms", &|l| l.join_ms, "ms"),
        m("engine.project_ms", &|l| l.project_ms, "ms"),
    ]);
    let scanned: u64 = t.iter().map(|l| l.scan_rows_in).sum();
    let results: u64 = t.iter().map(|l| l.rows.max(1) as u64).sum();
    out.push(
        Metric::new(
            "engine.scan_rows_per_result_row",
            scanned as f64 / results.max(1) as f64,
            "ratio",
        )
        .n(n)
        .note(format!("{scanned} / {results}")),
    );
    let acked = i.writes.acked.len().max(1) as f64;
    out.push(Metric::new(
        "storage.wal_bytes_per_user_byte",
        i.wal.bytes as f64 / i.writes.user_bytes.max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "storage.fsyncs_per_insert",
        i.wal.fsyncs as f64 / acked,
        "ratio",
    ));
    let inserts = &i.writes.latencies_us;
    out.push(
        Metric::new(
            "storage.insert_p50_us",
            median(inserts).unwrap_or(0.0),
            "us",
        )
        .n(inserts.len()),
    );
    let insert_tail = tail(inserts, 99.0);
    out.push(
        Metric::new(
            "storage.insert_tail_us",
            insert_tail.map_or(0.0, |t| t.value),
            "us",
        )
        .n(inserts.len())
        .note(insert_tail.map_or(String::new(), |t| format!("p{}", t.percentile))),
    );
    out.push(Metric::new(
        "storage.checkpoints",
        i.wal.checkpoints as f64,
        "count",
    ));
    let mut checkpoints: Vec<f64> = i.setups.iter().map(|s| s.checkpoint_s * 1e3).collect();
    checkpoints.extend(&i.writes.checkpoint_ms);
    out.push(
        Metric::new(
            "storage.checkpoint_ms",
            median(&checkpoints).unwrap_or(0.0),
            "ms",
        )
        .n(checkpoints.len()),
    );
    out.push(Metric::new(
        "storage.replayed_records",
        i.replayed as f64,
        "count",
    ));
    let setup = |f: fn(&SetupTimes) -> f64| {
        median(&i.setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.push(Metric::new("storage.import_s", setup(|s| s.import_s), "s").n(i.setups.len()));
    out.push(Metric::new("tpch.generate_s", setup(|s| s.generate_s), "s").n(i.setups.len()));
    out.push(
        Metric::new(
            "load.writer_late_ms",
            percentile(&i.writes.late_ms, 99.0).unwrap_or(0.0),
            "ms",
        )
        .n(i.writes.late_ms.len())
        .note("p99"),
    );
    let traced_client: Vec<f64> = t
        .iter()
        .flat_map(|s| s.reps.iter().map(|r| r.client_ms))
        .collect();
    out.push(Metric::new(
        "trace.overhead_ms",
        median(&traced_client).unwrap_or(0.0) - median(&i.reads.latencies_ms).unwrap_or(0.0),
        "ms",
    ));
    out.push(Metric::new(
        "exact.drift_count",
        i.drift_count as f64,
        "count",
    ));
    out
}

fn load_section(
    args: &Args,
    reads: &ReadStats,
    writes: &WriteStats,
    setups: &[SetupTimes],
) -> String {
    let mut s = format!(
        "load: {} closed-loop connection(s) for {:.2} s: {} verified read(s), {} error(s), {} wrong answer(s)\n",
        args.workload.connections(),
        reads.elapsed_s,
        reads.latencies_ms.len(),
        reads.errors,
        reads.wrong
    );
    s.push_str(&format!(
        "writes: {} single-row insert(s) {}: {} acknowledged in {:.2} s; \
         generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
        writes.attempted,
        if args.workload == Workload::IngestRead {
            format!("open loop at {INSERT_RATE}/s beside the readers")
        } else {
            "closed loop after the read phase".to_string()
        },
        writes.acked.len(),
        writes.elapsed_s,
        median(&writes.late_ms).unwrap_or(0.0),
        percentile(&writes.late_ms, 99.0).unwrap_or(0.0),
        writes.late_ms.iter().copied().fold(0.0, f64::max),
    ));
    let setup: Vec<String> = setups.iter().map(|t| format!("{:.3}", t.total_s)).collect();
    s.push_str(&format!("set-up (s): [{}]\n", setup.join(", ")));
    s
}

/// The traced run's report: per-layer means showing how the parts add
/// up to the client-observed time, then one line per statement.
fn layer_section(traced: &[Traced], reads: &ReadStats, tracer: &Tracer) -> String {
    let reps: Vec<&Rep> = traced.iter().flat_map(|t| &t.reps).collect();
    let n = reps.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).sum::<f64>() / n;
    let client = mean(&|r| r.client_ms);
    let row =
        |name: &str, v: f64| format!("  {name:<34} {v:>10.4} ms  {:>5.1}%\n", 100.0 * v / client);
    let mut s = format!(
        "traced replay: {} statement(s) x {TRACE_REPS}, {} span(s); means over repetitions\n",
        traced.len(),
        tracer.span_count()
    );
    s.push_str(&row("client (Client::query)", client));
    s.push_str(&row("  server.wire", mean(&|r| r.wire_ms())));
    s.push_str(&row("  sql.parse", mean(&|r| r.parse_us / 1e3)));
    s.push_str(&row("  sql.bind", mean(&|r| r.bind_us / 1e3)));
    s.push_str(&row(
        "  core.kernel (auto, incl. decide)",
        mean(&|r| r.kernel_ms),
    ));
    s.push_str(&row("  facade.residual", mean(&|r| r.residual_ms())));
    s.push_str(&row("profiled kernel", mean(&|r| r.profiled_ms)));
    s.push_str(&row("  engine.scan", mean(&|r| r.scan_ms)));
    s.push_str(&row("  engine.join", mean(&|r| r.join_ms)));
    s.push_str(&row("  engine.project", mean(&|r| r.project_ms)));
    s.push_str(&row("  core.nest", mean(&|r| r.nest_ms)));
    s.push_str(&row("  core.link", mean(&|r| r.link_ms)));
    s.push_str(&row(
        "  other operators",
        mean(&|r| r.op_wall_ms - r.scan_ms - r.join_ms - r.project_ms - r.nest_ms - r.link_ms),
    ));
    s.push_str(&row("  core.unattributed", mean(&|r| r.unattributed_ms())));
    s.push_str(&format!(
        "tracing overhead: traced client median {:.4} ms vs untraced query p50 {:.4} ms\n",
        median(&reps.iter().map(|r| r.client_ms).collect::<Vec<_>>()).unwrap_or(0.0),
        median(&reads.latencies_ms).unwrap_or(0.0)
    ));
    s.push_str("statement            rows  client_ms  wire_ms  kernel_ms  resid_ms  unattr_ms  strategies (ms)\n");
    for t in traced {
        let strategies: Vec<String> = t
            .strategy_ms
            .iter()
            .map(|(st, ms)| format!("{}={ms:.2}", st.name()))
            .collect();
        s.push_str(&format!(
            "{:<18} {:>6} {:>10.3} {:>8.3} {:>10.3} {:>9.3} {:>10.3}  {} native/auto={:.2}\n",
            t.label,
            t.rows,
            t.med(&|r| r.client_ms),
            t.med(&|r| r.wire_ms()),
            t.med(&|r| r.kernel_ms),
            t.med(&|r| r.residual_ms()),
            t.med(&|r| r.unattributed_ms()),
            strategies.join(" "),
            t.native_over_nr()
        ));
    }
    s
}
