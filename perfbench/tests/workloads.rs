//! The benchmark's own checks: Baseline (the engine that computes the
//! expected answers) agrees with the Reference evaluator on every
//! workload template, the per-key answers split from one unrestricted
//! statement equal the single-key statements, and every workload runs
//! end to end at a small scale with every answer verified and exactly
//! the metrics `BENCHMARK.json` declares.

use nra::storage::Catalog;
use nra::tpch::{generate, TpchConfig};
use nra::{Database, Engine, QueryOptions};
use perfbench::run::{self, Args};
use perfbench::verify::{baseline, Fingerprint};
use perfbench::workloads::{self, KeyedAnswers, Workload, POINT_TEMPLATES};

const SMALL: f64 = 0.01;

fn small_db() -> Database {
    let cat: Catalog = generate(&TpchConfig::scaled(SMALL).nullable_links(0.0).with_seed(3));
    Database::from_catalog(cat)
}

fn reference(db: &Database, sql: &str) -> Fingerprint {
    let opts = QueryOptions::new()
        .engine(Engine::Reference)
        .plan_cache(false);
    Fingerprint::of_relation(&db.execute(sql, &opts).expect("reference runs").rows)
}

fn base(db: &Database, sql: &str) -> Fingerprint {
    Fingerprint::of_relation(&baseline(db, sql).expect("baseline runs"))
}

#[test]
fn baseline_matches_reference_on_paper_statements() {
    let db = small_db();
    let statements = workloads::paper_sql(&db.catalog(), SMALL);
    assert_eq!(statements.len(), 24);
    for (label, sql) in statements {
        assert_eq!(base(&db, &sql), reference(&db, &sql), "{label}");
    }
}

#[test]
fn baseline_matches_reference_on_point_templates() {
    let db = small_db();
    for t in &POINT_TEMPLATES {
        let keys = workloads::keys(&db.catalog(), t.table);
        let answers = KeyedAnswers::compute(&db, t).expect("unrestricted statement runs");
        let probe: Vec<i64> = keys
            .iter()
            .step_by(keys.len() / 12)
            .copied()
            .chain([-1])
            .collect();
        for k in probe {
            let sql = t.sql(k);
            let expect = reference(&db, &sql);
            assert_eq!(base(&db, &sql), expect, "{} key {k}", t.name);
            assert_eq!(answers.expect(k), expect, "{} key {k} split answer", t.name);
        }
        assert_eq!(
            base(&db, &t.unrestricted_sql()),
            reference(&db, &t.unrestricted_sql()),
            "{} unrestricted",
            t.name
        );
    }
}

#[test]
fn inserted_orders_stay_outside_query_1() {
    let db = small_db();
    let q1 = workloads::q1_request(&db, SMALL).expect("query 1 runs");
    assert_eq!(q1.expect, reference(&db, &q1.sql));
    let stream = workloads::write_stream(&db.catalog(), 9, 400);
    for w in &stream.writes {
        db.insert(w.table, vec![w.row.clone()])
            .expect("generated rows insert");
    }
    assert_eq!(
        base(&db, &q1.sql),
        q1.expect,
        "Q1's answer survives the inserts"
    );
    assert_eq!(reference(&db, &q1.sql), q1.expect);
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = nra::obs::json::Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(|s| s.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run_small(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 5,
        seconds: 1,
        trace,
        scale: SMALL,
    };
    let out = run::run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.findings);
    assert!(out.attempted > 0);
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, declared(section), "{} {section}", workload.name());
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn paper_subq_runs_verified() {
    run_small(Workload::PaperSubq, false);
    run_small(Workload::PaperSubq, true);
}

#[test]
fn point_mix_runs_verified() {
    run_small(Workload::PointMix, false);
    run_small(Workload::PointMix, true);
}

#[test]
fn ingest_read_runs_verified() {
    run_small(Workload::IngestRead, false);
    run_small(Workload::IngestRead, true);
}
