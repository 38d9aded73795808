//! The three workloads: read-request sources, the insert stream and the
//! expected answers, all derived from the seed and the generated data.
//! The program under test only ever sees the resulting SQL text and
//! rows.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nra::storage::rng::Pcg32;
use nra::storage::{Catalog, Value};
use nra::tpch::gen::DATE_HI;
use nra::tpch::{q1_sql, q2_sql, q3_sql, ExistsKind, Q3Corr, Quant};
use nra::{Database, NraError};

use crate::verify::{baseline, text_rows, Fingerprint};

/// Relative data scale of every workload: orders 8,000 rows, lineitem
/// 24,000, part 12,000, partsupp 24,000.
pub const SCALE: f64 = 0.2;

/// Open-loop rate of `ingest-read`'s insert stream, inserts per second.
/// At 1000/s a slow-disk phase stretched a checkpoint to seconds and the
/// writer fell up to 4.8 s behind, starving the reader; at 500/s the
/// backlog stays under a quarter of a second.
pub const INSERT_RATE: f64 = 500.0;

/// Inserts in the closed-loop write probe that follows the read phase of
/// the read-only workloads (two automatic checkpoints' worth), so their
/// storage and recovery figures cover a write path too.
pub const PROBE_INSERTS: usize = 10_000;

/// Keys per table in `point-mix`'s hot set.
const HOT_KEYS: usize = 64;
/// Share of `point-mix` keys drawn from the hot set.
const HOT_SHARE: f64 = 0.9;
/// Length of the `point-mix` request sequence the connections cycle.
const POINT_SEQUENCE: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSubq,
    PointMix,
    IngestRead,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSubq,
        Workload::PointMix,
        Workload::IngestRead,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSubq => "paper-subq",
            Workload::PointMix => "point-mix",
            Workload::IngestRead => "ingest-read",
        }
    }

    /// Wire connections running the closed read loop.
    pub fn connections(self) -> usize {
        match self {
            Workload::PointMix => 2,
            Workload::PaperSubq | Workload::IngestRead => 1,
        }
    }

    /// Statements replayed per traced run.
    pub fn trace_sample(self) -> usize {
        match self {
            Workload::PaperSubq => 24,
            Workload::PointMix => 24,
            Workload::IngestRead => 12,
        }
    }
}

/// One read request and the answer it must produce.
#[derive(Debug, Clone)]
pub struct Request {
    pub label: Arc<str>,
    pub sql: Arc<str>,
    pub expect: Fingerprint,
}

impl Request {
    fn new(label: &str, sql: String, expect: Fingerprint) -> Request {
        Request {
            label: label.into(),
            sql: sql.into(),
            expect,
        }
    }

    /// A request whose expected answer `Engine::Baseline` computes now.
    fn checked(db: &Database, label: &str, sql: String) -> Result<Request, NraError> {
        let expect = Fingerprint::of_relation(&baseline(db, &sql)?);
        Ok(Request::new(label, sql, expect))
    }
}

/// The paper's block-size grid (§5), scaled: Query 1's outer block over
/// 4K–16K of 40K orders; the first block of Queries 2–3 over 12K–48K of
/// 60K parts, with the second block fixed at 16K.
fn paper_grid(scale: f64) -> ([usize; 4], [usize; 4], usize) {
    let s = |n: f64| ((n * scale).round() as usize).max(4);
    (
        [s(4_000.0), s(8_000.0), s(12_000.0), s(16_000.0)],
        [s(12_000.0), s(24_000.0), s(36_000.0), s(48_000.0)],
        s(16_000.0),
    )
}

/// The paper's six queries at their four grid points: Q1, Q2A, Q2B and
/// Q3A (=,=), Q3B (<>,=), Q3C (=,<>).
pub fn paper_sql(cat: &Catalog, scale: f64) -> Vec<(String, String)> {
    let (q1_outer, q23_part, partsupp) = paper_grid(scale);
    let mut out = Vec::new();
    for n in q1_outer {
        out.push((format!("Q1@{n}"), q1_sql(cat, n)));
    }
    for n in q23_part {
        out.push((format!("Q2A@{n}"), q2_sql(cat, Quant::Any, n, partsupp)));
        out.push((format!("Q2B@{n}"), q2_sql(cat, Quant::All, n, partsupp)));
        let q3 = [
            ("Q3A", Quant::All, ExistsKind::Exists, Q3Corr::EqEq),
            ("Q3B", Quant::All, ExistsKind::NotExists, Q3Corr::NeEq),
            ("Q3C", Quant::Any, ExistsKind::Exists, Q3Corr::EqNe),
        ];
        for (name, quant, exists, corr) in q3 {
            out.push((
                format!("{name}@{n}"),
                q3_sql(cat, quant, exists, corr, n, partsupp),
            ));
        }
    }
    out
}

/// A single-outer-key statement: `head where key = k [and rest]`.
/// Dropping the key predicate gives the unrestricted statement whose
/// answer, split by the key in its first column, holds every per-key
/// answer at once.
#[derive(Debug, Clone, Copy)]
pub struct PointTemplate {
    pub name: &'static str,
    pub table: &'static str,
    key: &'static str,
    head: &'static str,
    rest: Option<&'static str>,
}

pub const POINT_TEMPLATES: [PointTemplate; 5] = [
    PointTemplate {
        name: "pk-orders",
        table: "orders",
        key: "o_orderkey",
        head: "select o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
               o_orderpriority from orders",
        rest: None,
    },
    PointTemplate {
        name: "pk-part",
        table: "part",
        key: "p_partkey",
        head: "select p_partkey, p_name, p_brand, p_size, p_retailprice from part",
        rest: None,
    },
    PointTemplate {
        name: "gt-all",
        table: "orders",
        key: "o_orderkey",
        head: "select o_orderkey, o_totalprice from orders",
        rest: Some(
            "o_totalprice > all (select l_extendedprice from lineitem \
             where l_orderkey = o_orderkey)",
        ),
    },
    PointTemplate {
        name: "lt-any",
        table: "part",
        key: "p_partkey",
        head: "select p_partkey, p_retailprice from part",
        rest: Some(
            "p_retailprice < any (select ps_supplycost from partsupp \
             where ps_partkey = p_partkey)",
        ),
    },
    PointTemplate {
        name: "not-exists",
        table: "orders",
        key: "o_orderkey",
        head: "select o_orderkey, o_orderdate from orders",
        rest: Some(
            "not exists (select * from lineitem \
             where l_orderkey = o_orderkey and l_quantity = 1)",
        ),
    },
];

impl PointTemplate {
    pub fn sql(&self, key: i64) -> String {
        match self.rest {
            Some(rest) => format!("{} where {} = {key} and {rest}", self.head, self.key),
            None => format!("{} where {} = {key}", self.head, self.key),
        }
    }

    pub fn unrestricted_sql(&self) -> String {
        match self.rest {
            Some(rest) => format!("{} where {rest}", self.head),
            None => self.head.to_string(),
        }
    }
}

/// Every per-key answer of a template, from one Baseline run of its
/// unrestricted statement.
pub struct KeyedAnswers {
    by_key: HashMap<i64, Vec<Vec<String>>>,
}

impl KeyedAnswers {
    pub fn compute(db: &Database, template: &PointTemplate) -> Result<KeyedAnswers, NraError> {
        let rel = baseline(db, &template.unrestricted_sql())?;
        let mut by_key: HashMap<i64, Vec<Vec<String>>> = HashMap::new();
        for (row, text) in rel.rows().iter().zip(text_rows(rel.rows())) {
            if let Value::Int(k) = row[0] {
                by_key.entry(k).or_default().push(text);
            }
        }
        Ok(KeyedAnswers { by_key })
    }

    pub fn expect(&self, key: i64) -> Fingerprint {
        self.by_key
            .get(&key)
            .map(|rows| Fingerprint::of_text_rows(rows))
            .unwrap_or_default()
    }
}

/// The integer primary keys of `table` (first column), in table order.
pub fn keys(cat: &Catalog, table: &str) -> Vec<i64> {
    cat.table(table)
        .map(|t| {
            t.data()
                .rows()
                .iter()
                .filter_map(|r| match r[0] {
                    Value::Int(k) => Some(k),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// `n` distinct values drawn from `xs`.
fn sample_distinct(rng: &mut Pcg32, xs: &[i64], n: usize) -> Vec<i64> {
    let mut pool = xs.to_vec();
    let n = n.min(pool.len());
    for i in 0..n {
        let j = i + rng.index(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// Where a connection's next read request comes from.
pub enum Source {
    /// Walk a fixed sequence cyclically, each connection from its own
    /// offset.
    Cycle(Arc<Vec<Request>>),
    /// `ingest-read`'s mix: one in five requests is Query 1, the rest
    /// primary-key lookups of an original order or of an order whose
    /// insert was already acknowledged.
    Ingest(IngestReads),
}

pub struct IngestReads {
    pub q1: Request,
    pub original_keys: Vec<i64>,
    pub orders: Arc<KeyedAnswers>,
    /// Lookup of the i-th inserted order.
    pub inserted: Arc<Vec<Request>>,
    /// Orders acknowledged so far (a prefix of `inserted`).
    pub acked: Arc<AtomicUsize>,
}

impl Source {
    /// The request generator of connection `conn`.
    pub fn reader(&self, conn: usize, seed: u64) -> Box<dyn FnMut() -> Request + Send> {
        match self {
            Source::Cycle(seq) => {
                let seq = Arc::clone(seq);
                let mut i = conn * seq.len() / 2;
                Box::new(move || {
                    let r = seq[i % seq.len()].clone();
                    i += 1;
                    r
                })
            }
            Source::Ingest(reads) => {
                let mut rng = Pcg32::new(seed ^ 0x1_0000 ^ conn as u64);
                let q1 = reads.q1.clone();
                let keys = reads.original_keys.clone();
                let orders = Arc::clone(&reads.orders);
                let inserted = Arc::clone(&reads.inserted);
                let acked = Arc::clone(&reads.acked);
                let pk = POINT_TEMPLATES[0];
                Box::new(move || {
                    let acked = acked.load(Ordering::SeqCst);
                    match rng.index(5) {
                        0 => q1.clone(),
                        1 | 2 => {
                            let k = *rng.choose(&keys);
                            Request::new(pk.name, pk.sql(k), orders.expect(k))
                        }
                        _ if acked > 0 => inserted[rng.index(acked)].clone(),
                        _ => {
                            let k = *rng.choose(&keys);
                            Request::new(pk.name, pk.sql(k), orders.expect(k))
                        }
                    }
                })
            }
        }
    }

    /// The statements a traced run replays: the first `n` requests one
    /// connection would send.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Request> {
        let mut next = self.reader(0, seed ^ 0x2_0000);
        (0..n).map(|_| next()).collect()
    }
}

/// `paper-subq`: the 24 paper statements in a seeded order, each
/// permutation followed by another, so every statement recurs evenly.
pub fn paper_source(db: &Database, scale: f64, seed: u64) -> Result<Source, NraError> {
    let statements = paper_sql(&db.catalog(), scale);
    let requests = statements
        .into_iter()
        .map(|(label, sql)| Request::checked(db, &label, sql))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Pcg32::new(seed ^ 0x3_0000);
    let mut seq = Vec::new();
    for _ in 0..8 {
        let mut perm = requests.clone();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.index(i + 1));
        }
        seq.extend(perm);
    }
    Ok(Source::Cycle(Arc::new(seq)))
}

/// `point-mix`: a seeded sequence over the five point templates, keys
/// 90% from a 64-key hot set per table and 10% uniform over all keys.
pub fn point_source(db: &Database, seed: u64) -> Result<Source, NraError> {
    let mut rng = Pcg32::new(seed ^ 0x4_0000);
    let mut all_keys: HashMap<&str, Vec<i64>> = HashMap::new();
    let mut hot: HashMap<&str, Vec<i64>> = HashMap::new();
    for table in ["orders", "part"] {
        let ks = keys(&db.catalog(), table);
        hot.insert(table, sample_distinct(&mut rng, &ks, HOT_KEYS));
        all_keys.insert(table, ks);
    }
    let answers = POINT_TEMPLATES
        .iter()
        .map(|t| KeyedAnswers::compute(db, t))
        .collect::<Result<Vec<_>, _>>()?;
    let seq = (0..POINT_SEQUENCE)
        .map(|_| {
            let i = rng.index(POINT_TEMPLATES.len());
            let t = &POINT_TEMPLATES[i];
            let k = if rng.bool(HOT_SHARE) {
                *rng.choose(&hot[t.table])
            } else {
                *rng.choose(&all_keys[t.table])
            };
            Request::new(t.name, t.sql(k), answers[i].expect(k))
        })
        .collect();
    Ok(Source::Cycle(Arc::new(seq)))
}

/// Query 1 at its second grid point, with its expected answer. Inserted
/// orders never enter its date window, so the answer holds for the
/// whole run and after recovery.
pub fn q1_request(db: &Database, scale: f64) -> Result<Request, NraError> {
    let (q1_outer, _, _) = paper_grid(scale);
    let sql = q1_sql(&db.catalog(), q1_outer[1]);
    Request::checked(db, &format!("Q1@{}", q1_outer[1]), sql)
}

/// `ingest-read`'s reads: Query 1 plus order lookups; `stream` is the
/// insert stream running beside them.
pub fn ingest_source(
    db: &Database,
    q1: Request,
    stream: &WriteStream,
    acked: Arc<AtomicUsize>,
) -> Result<Source, NraError> {
    let pk = &POINT_TEMPLATES[0];
    let inserted = stream
        .orders
        .iter()
        .map(|row| {
            let Value::Int(k) = row[0] else {
                unreachable!("inserted orders have integer keys")
            };
            Request::new("pk-inserted", pk.sql(k), Fingerprint::of_values(&[row]))
        })
        .collect();
    Ok(Source::Ingest(IngestReads {
        q1,
        original_keys: keys(&db.catalog(), "orders"),
        orders: Arc::new(KeyedAnswers::compute(db, pk)?),
        inserted: Arc::new(inserted),
        acked,
    }))
}

/// One single-row insert.
#[derive(Debug, Clone)]
pub struct Write {
    pub table: &'static str,
    pub row: Vec<Value>,
    /// Set on an order insert: its index in [`WriteStream::orders`].
    pub order: Option<usize>,
}

/// A seeded stream of single-row inserts alternating between a new
/// order and a line item of it. New orders are dated after every
/// generated order, so Query 1's date window never admits them.
pub struct WriteStream {
    pub writes: Vec<Write>,
    pub orders: Vec<Vec<Value>>,
}

pub fn write_stream(cat: &Catalog, seed: u64, n: usize) -> WriteStream {
    let mut rng = Pcg32::new(seed ^ 0x5_0000);
    let base = keys(cat, "orders").into_iter().max().unwrap_or(0) + 1;
    let priorities = ["1-urgent", "2-high", "3-medium", "4-not specified", "5-low"];
    let mut writes = Vec::with_capacity(n);
    let mut orders = Vec::new();
    for i in 0..n {
        let o = (i / 2) as i64;
        let key = base + o;
        let date = DATE_HI + (o % 400) as i32;
        let (table, row) = if i % 2 == 0 {
            let row = vec![
                Value::Int(key),
                Value::Int(rng.range_incl_i64(1, 2_000)),
                Value::str("O"),
                Value::Decimal(rng.range_i64(1_000, 50_000_000)),
                Value::Date(date),
                Value::str(*rng.choose(&priorities)),
            ];
            orders.push(row.clone());
            ("orders", row)
        } else {
            let ship = date + rng.range_incl_i64(1, 30) as i32;
            let row = vec![
                Value::Int(key),
                Value::Int(1),
                Value::Int(rng.range_incl_i64(1, 12_000)),
                Value::Int(rng.range_incl_i64(1, 600)),
                Value::Int(rng.range_incl_i64(1, 10)),
                Value::Decimal(rng.range_i64(1_000, 10_000_000)),
                Value::Date(ship),
                Value::Date(ship + rng.range_incl_i64(1, 30) as i32),
                Value::Date(ship + rng.range_incl_i64(1, 30) as i32),
            ];
            ("lineitem", row)
        };
        writes.push(Write {
            table,
            row,
            order: (i % 2 == 0).then_some(o as usize),
        });
    }
    WriteStream { writes, orders }
}

/// Bytes of user data in a row under the benchmark's fixed encoding:
/// 8 per integer, decimal or float, 4 per date, 1 per boolean or NULL,
/// and a string's UTF-8 length.
pub fn row_user_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Decimal(_) | Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// User bytes of every row in the catalog.
pub fn catalog_user_bytes(cat: &Catalog) -> u64 {
    cat.table_names()
        .iter()
        .filter_map(|name| cat.table(name).ok())
        .flat_map(|t| t.data().rows().iter().map(|r| row_user_bytes(r)))
        .sum()
}
