//! The timed phases: closed-loop readers over the wire, the open-loop
//! insert stream, and recovery of the directory a run leaves behind.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nra::storage::Value;
use nra::Database;
use nra_server::Client;

use crate::verify::Fingerprint;
use crate::workloads::{row_user_bytes, Source, WriteStream};

/// What the closed-loop readers saw.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Client-observed latency of each verified read, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests the server answered with an error (refusals included).
    pub errors: u64,
    /// Answers whose fingerprint differed from the expected one.
    pub wrong: u64,
    pub elapsed_s: f64,
    pub first_problem: Option<String>,
}

impl ReadStats {
    fn absorb(&mut self, other: ReadStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.first_problem = self.first_problem.take().or(other.first_problem);
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// Open `n` wire connections. They serve the warm-up and the measured
/// phase alike, so the server keeps the same connection threads (and
/// their allocator state) from one phase to the next.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// One connection's closed loop: send the next request only after the
/// previous answer arrived, until `stop` is set or `limit` requests
/// went out. The answer is checked after its latency is taken.
fn read_loop(
    client: &mut Client,
    mut next: Box<dyn FnMut() -> crate::workloads::Request + Send>,
    stop: &AtomicBool,
    limit: usize,
) -> ReadStats {
    let mut stats = ReadStats::default();
    while !stop.load(Ordering::SeqCst) && (stats.attempted as usize) < limit {
        let req = next();
        stats.attempted += 1;
        let start = Instant::now();
        let resp = client.query(&req.sql);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(r) => {
                let got = Fingerprint::of_text_rows(&r.rows);
                if got == req.expect {
                    stats.latencies_ms.push(ms);
                } else {
                    stats.wrong += 1;
                    stats.first_problem.get_or_insert_with(|| {
                        format!(
                            "{}: {} row(s), expected {} ({})",
                            req.label, got.rows, req.expect.rows, req.sql
                        )
                    });
                }
            }
            Err(e) => {
                stats.errors += 1;
                stats
                    .first_problem
                    .get_or_insert_with(|| format!("{}: {e}", req.label));
            }
        }
    }
    stats
}

/// Run one closed loop per client for `duration`, or until `until`
/// returns, whichever is later. `until` runs on the calling thread
/// while the readers run on their own.
pub fn readers<T>(
    clients: &mut [Client],
    source: &Source,
    seed: u64,
    duration: Duration,
    until: impl FnOnce() -> T,
) -> (ReadStats, T) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (mut stats, out) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = source.reader(c, seed);
                let stop = &stop;
                s.spawn(move || read_loop(client, next, stop, usize::MAX))
            })
            .collect();
        let out = until();
        if let Some(rest) = duration.checked_sub(start.elapsed()) {
            std::thread::sleep(rest);
        }
        stop.store(true, Ordering::SeqCst);
        (join_readers(handles), out)
    });
    stats.elapsed_s = start.elapsed().as_secs_f64();
    (stats, out)
}

/// Send `requests` verified requests on each client before anything is
/// timed, so caches fill and lazy set-up finishes.
pub fn warmup(clients: &mut [Client], source: &Source, seed: u64, requests: usize) -> ReadStats {
    let never = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = source.reader(c, seed);
                let never = &never;
                s.spawn(move || read_loop(client, next, never, requests))
            })
            .collect();
        join_readers(handles)
    })
}

fn join_readers(handles: Vec<std::thread::ScopedJoinHandle<'_, ReadStats>>) -> ReadStats {
    let mut total = ReadStats::default();
    for h in handles {
        match h.join() {
            Ok(st) => total.absorb(st),
            Err(_) => {
                total.attempted += 1;
                total.errors += 1;
                total.first_problem = Some("reader thread panicked".into());
            }
        }
    }
    total
}

/// What the open-loop insert stream saw.
#[derive(Debug, Default)]
pub struct WriteStats {
    /// Due-to-acknowledged latency of each acknowledged insert, in µs.
    pub latencies_us: Vec<f64>,
    /// How late each insert started against its schedule, in ms.
    pub late_ms: Vec<f64>,
    /// Start-to-acknowledged time of each insert that took an automatic
    /// checkpoint, in ms.
    pub checkpoint_ms: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    /// Indices (into the stream) of acknowledged inserts.
    pub acked: Vec<usize>,
    pub user_bytes: u64,
    pub elapsed_s: f64,
    pub first_problem: Option<String>,
}

/// Sleep until shortly before `due`, then spin, so the generator's own
/// wake-up delay stays out of the latencies it measures.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn snapshot_lsn(db: &Database) -> u64 {
    db.durability().map_or(0, |d| d.snapshot_lsn)
}

/// Insert `stream` one row per `Database::insert` call. With a `rate`
/// the stream runs open loop: insert `i` is due `i / rate` seconds after
/// the start whether or not earlier ones finished. Without one it runs
/// closed loop: each insert is due when the previous one was
/// acknowledged. Latency runs from when an insert was due. Each
/// acknowledged order bumps `acked_orders`.
pub fn writer(
    db: &Database,
    stream: &WriteStream,
    rate: Option<f64>,
    acked_orders: &AtomicUsize,
) -> WriteStats {
    let mut stats = WriteStats::default();
    let start = Instant::now();
    for (i, w) in stream.writes.iter().enumerate() {
        let due = match rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        wait_until(due);
        let begun = Instant::now();
        stats.late_ms.push((begun - due).as_secs_f64() * 1e3);
        stats.attempted += 1;
        let lsn_before = snapshot_lsn(db);
        let result = db.insert(w.table, vec![w.row.clone()]);
        let acked = Instant::now();
        match result {
            Ok(()) => {
                stats.latencies_us.push((acked - due).as_secs_f64() * 1e6);
                stats.acked.push(i);
                stats.user_bytes += row_user_bytes(&w.row);
                if let Some(o) = w.order {
                    acked_orders.store(o + 1, Ordering::SeqCst);
                }
                if snapshot_lsn(db) != lsn_before {
                    stats
                        .checkpoint_ms
                        .push((acked - begun).as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                stats.errors += 1;
                stats
                    .first_problem
                    .get_or_insert_with(|| format!("insert into {}: {e}", w.table));
            }
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats
}

/// Reopening the directory a run left behind.
pub struct Recovery {
    /// Wall time of each `Database::open`, in seconds.
    pub open_s: Vec<f64>,
    /// `RecoveryReport::replayed` of the last open.
    pub replayed: u64,
    /// The database from the last open.
    pub db: Database,
}

/// Open `dir` `reps` times (each handle dropped before the next open)
/// and keep the last.
pub fn reopen(dir: &Path, reps: usize) -> Result<Recovery, String> {
    let mut open_s = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let db = Database::open(dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        open_s.push(start.elapsed().as_secs_f64());
        last = Some(db);
    }
    let db = last.expect("at least one open");
    let replayed = db.recovery().map_or(0, |r| r.replayed);
    Ok(Recovery {
        open_s,
        replayed,
        db,
    })
}

/// Acknowledged inserts missing from `db`.
pub fn missing_acked(db: &Database, stream: &WriteStream, acked: &[usize]) -> Vec<usize> {
    let cat = db.catalog();
    let present = |table: &str| -> HashSet<Vec<String>> {
        cat.table(table)
            .map(|t| {
                t.data()
                    .rows()
                    .iter()
                    .map(|r| r.iter().map(Value::to_string).collect())
                    .collect()
            })
            .unwrap_or_default()
    };
    let orders = present("orders");
    let lineitem = present("lineitem");
    acked
        .iter()
        .copied()
        .filter(|&i| {
            let w = &stream.writes[i];
            let text: Vec<String> = w.row.iter().map(Value::to_string).collect();
            let table = if w.table == "orders" {
                &orders
            } else {
                &lineitem
            };
            !table.contains(&text)
        })
        .collect()
}
