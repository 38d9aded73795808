//! The traced run: each sampled statement is replayed through successively
//! deeper public entry points under one request id, and a layer's time
//! is the difference between consecutive entry points:
//!
//! ```text
//! server   Client::query            wire = client − session
//! facade   Session::execute         residual = session − parse − bind − kernel
//! sql      nra_sql::parse_query, bind
//! core     planner::decide, nra_core::execute(Auto)   (decide runs inside the kernel)
//! obs      the same call under the profile collector   unattributed = profiled − Σ operator walls
//! engine   operator walls of that profile (scan, join, project; nest and link are core's)
//! ```
//!
//! Every call is recorded as a span (id, parent, request, name, start,
//! end) kept in memory and written out as JSONL at the end. Spans of one
//! request are successive replays, not nested in time; `parent` names
//! the layer a call belongs under. Operator spans carry their profiled
//! wall time anchored at the start of the profiled call.

use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use nra::core::planner;
use nra::engine::baseline;
use nra::obs::json::escape;
use nra::{Database, QueryOptions, Strategy};
use nra_server::Client;

use crate::stats::median;
use crate::verify::Fingerprint;
use crate::workloads::Request;

/// The forced strategies timed beside `auto`.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy::Original,
    Strategy::Optimized,
    Strategy::BottomUp,
    Strategy::BottomUpPushdown,
    Strategy::PositiveRewrite,
];

struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    next_request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 1,
        }
    }
}

impl Tracer {
    fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(SpanRecord {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `f` as span `name`; returns its value, the span id and its
    /// duration in ms.
    fn span<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
        let (s, e) = (ns(start), ns(end));
        let id = self.push(name, parent, request, s, e);
        (out, id, (end - start).as_secs_f64() * 1e3)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                escape(&s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Repetitions that also time the forced strategies and the baseline
/// engine (the slowest part of a replay).
pub const FORCED_REPS: usize = 1;

/// The times of one traced repetition of a statement.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub client_ms: f64,
    pub session_ms: f64,
    pub parse_us: f64,
    pub bind_us: f64,
    pub decide_us: f64,
    pub kernel_ms: f64,
    pub profiled_ms: f64,
    pub op_wall_ms: f64,
    pub nest_ms: f64,
    pub link_ms: f64,
    pub scan_ms: f64,
    pub join_ms: f64,
    pub project_ms: f64,
    /// Set on the first [`FORCED_REPS`] repetitions only.
    pub baseline_ms: Option<f64>,
}

impl Rep {
    pub fn wire_ms(&self) -> f64 {
        self.client_ms - self.session_ms
    }

    pub fn residual_ms(&self) -> f64 {
        self.session_ms - (self.parse_us + self.bind_us) / 1e3 - self.kernel_ms
    }

    pub fn unattributed_ms(&self) -> f64 {
        self.profiled_ms - self.op_wall_ms
    }
}

/// One traced statement: its repetitions, plus what holds for all of
/// them.
#[derive(Debug, Clone)]
pub struct Traced {
    pub label: String,
    pub rows: usize,
    pub reps: Vec<Rep>,
    /// Rows the profiled scans examined (an exact count).
    pub scan_rows_in: u64,
    /// Median kernel time of each forced strategy that accepted the query.
    pub strategy_ms: Vec<(Strategy, f64)>,
}

impl Traced {
    /// Median over the repetitions of `f`: differences between layers
    /// are taken within a repetition, then the median across them.
    pub fn med(&self, f: &dyn Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Median native-over-auto ratio over the repetitions that timed
    /// the baseline engine.
    pub fn native_over_nr(&self) -> f64 {
        let ratios: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.baseline_ms.map(|b| b / r.kernel_ms))
            .collect();
        median(&ratios).unwrap_or(0.0)
    }
}

/// Operator-wall buckets, by the operator's name in the profile.
fn bucket_walls(profile: &nra::obs::Profile) -> [f64; 6] {
    let mut b = [0.0; 6]; // total, nest, link, scan, join, project
    for (name, s) in &profile.ops {
        let ms = s.wall_ns as f64 / 1e6;
        b[0] += ms;
        let op = name.rsplit('/').next().unwrap_or(name);
        let slot = if op.starts_with("nest") {
            1
        } else if op.starts_with("link") {
            2
        } else if op.starts_with("scan") {
            3
        } else if op.starts_with("join") {
            4
        } else if op.starts_with("project") {
            5
        } else {
            continue;
        };
        b[slot] += ms;
    }
    b
}

fn scan_rows_in(profile: &nra::obs::Profile) -> u64 {
    profile
        .ops
        .iter()
        .filter(|(name, _)| name.rsplit('/').next().unwrap_or(name).starts_with("scan"))
        .map(|(_, s)| s.rows_in)
        .sum()
}

/// Replay `req` `reps` times through every entry point, after one
/// untimed pass so the calling thread's allocator and caches are warm.
/// `client` must have its plan cache off and the in-process session
/// runs with the plan cache off too, so each call parses and binds
/// exactly once and the subtraction defining the facade residual is
/// exact. Scan row counts that differ between repetitions are reported
/// as drift.
pub fn trace_statement(
    tracer: &mut Tracer,
    client: &mut Client,
    db: &Database,
    req: &Request,
    reps: usize,
) -> Result<(Traced, Vec<String>), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", req.label);
    let mut session = db.connect();
    session.set_defaults(QueryOptions::new().plan_cache(false));
    let sql: &str = &req.sql;
    let bound = nra::sql::parse_and_bind(sql, &db.catalog()).map_err(|e| fail("bind", &e))?;
    let _ = client.query(sql);
    let _ = session.execute(sql);
    let _ = nra::core::execute(&bound, &db.catalog(), Strategy::Auto);

    let mut problems = Vec::new();
    let mut done: Vec<Rep> = Vec::new();
    let mut scan_rows: Vec<u64> = Vec::new();
    let mut forced: Vec<(Strategy, Vec<f64>)> =
        STRATEGIES.iter().map(|&s| (s, Vec::new())).collect();
    let mut rows = 0;
    for rep in 0..reps.max(1) {
        let r = tracer.request();
        let (resp, server_id, client_ms) =
            tracer.span("server.client_query", None, r, || client.query(sql));
        let got = Fingerprint::of_text_rows(&resp.map_err(|e| fail("wire", &e))?.rows);
        if got != req.expect {
            return Err(fail("wire", &"wrong answer in the traced run"));
        }
        rows = got.rows;
        let (out, facade_id, session_ms) =
            tracer.span("facade.session_execute", Some(server_id), r, || {
                session.execute(sql)
            });
        out.map_err(|e| fail("session", &e))?;

        let cat = db.catalog();
        let (query, _, parse_ms) = tracer.span("sql.parse_query", Some(facade_id), r, || {
            nra::sql::parse_query(sql)
        });
        let query = query.map_err(|e| fail("parse", &e))?;
        if !query.compounds.is_empty() {
            return Err(fail("parse", &"compound statements are not traced"));
        }
        let (bound, _, bind_ms) = tracer.span("sql.bind", Some(facade_id), r, || {
            nra::sql::bind(&query.first, &cat)
        });
        let bound = bound.map_err(|e| fail("bind", &e))?;
        let (_, _, decide_ms) = tracer.span("core.decide", Some(facade_id), r, || {
            planner::decide(&bound)
        });
        let (rel, kernel_id, kernel_ms) =
            tracer.span("core.execute_auto", Some(facade_id), r, || {
                nra::core::execute(&bound, &cat, Strategy::Auto)
            });
        if Fingerprint::of_relation(&rel.map_err(|e| fail("kernel", &e))?) != req.expect {
            return Err(fail("kernel", &"wrong answer"));
        }
        let (profile, profiled_id, profiled_ms) =
            tracer.span("obs.profiled_execute_auto", Some(kernel_id), r, || {
                nra::obs::enable();
                let _ = nra::core::execute(&bound, &cat, Strategy::Auto);
                nra::obs::disable().unwrap_or_default()
            });
        let anchor = tracer.spans.last().map_or(0, |s| s.start_ns);
        for (name, s) in &profile.ops {
            tracer.push(
                &format!("engine.op.{name}"),
                Some(profiled_id),
                r,
                anchor,
                anchor + s.wall_ns,
            );
        }
        scan_rows.push(scan_rows_in(&profile));
        let walls = bucket_walls(&profile);

        for (strategy, times) in forced.iter_mut().filter(|_| rep < FORCED_REPS) {
            let name = format!("core.execute_{}", strategy.name());
            let (out, _, ms) = tracer.span(&name, Some(facade_id), r, || {
                nra::core::execute(&bound, &cat, *strategy)
            });
            // A strategy that does not apply to the query refuses it.
            if let Ok(rel) = out {
                if Fingerprint::of_relation(&rel) != req.expect {
                    return Err(fail(strategy.name(), &"wrong answer"));
                }
                times.push(ms);
            }
        }
        let baseline_ms = if rep < FORCED_REPS {
            let (out, _, ms) = tracer.span("engine.baseline_execute", Some(facade_id), r, || {
                baseline::execute(&bound, &cat)
            });
            out.map_err(|e| fail("baseline", &e))?;
            Some(ms)
        } else {
            None
        };
        done.push(Rep {
            client_ms,
            session_ms,
            parse_us: parse_ms * 1e3,
            bind_us: bind_ms * 1e3,
            decide_us: decide_ms * 1e3,
            kernel_ms,
            profiled_ms,
            op_wall_ms: walls[0],
            nest_ms: walls[1],
            link_ms: walls[2],
            scan_ms: walls[3],
            join_ms: walls[4],
            project_ms: walls[5],
            baseline_ms,
        });
    }
    if scan_rows.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "NONDETERMINISM {}: scan rows examined differ between repetitions: {scan_rows:?}",
            req.label
        ));
    }
    let traced = Traced {
        label: req.label.to_string(),
        rows,
        reps: done,
        scan_rows_in: scan_rows[0],
        strategy_ms: forced
            .into_iter()
            .filter_map(|(s, t)| median(&t).map(|m| (s, m)))
            .collect(),
    };
    Ok((traced, problems))
}

/// Open the traced run's client: its plan cache is off (see
/// [`trace_statement`]).
pub fn traced_client(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .query(".set plan_cache 0")
        .map_err(|e| format!("traced client: {e}"))?;
    Ok(client)
}
