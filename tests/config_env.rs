//! Strict environment-variable validation (its own test binary: the
//! environment is process-global, so these tests serialize behind one
//! mutex and never run alongside other suites' processes).
//!
//! Every `NRA_*` variable is parsed strictly by one typed `Config`: a
//! malformed value is a structured `EngineError::Config` naming the
//! variable, from both query execution and `Database::open`.

use std::sync::Mutex;

use nra::engine::EngineError;
use nra::storage::{Column, ColumnType, Value};
use nra::{Database, NraError, QueryOptions};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env<R>(pairs: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (k, v) in pairs {
        std::env::set_var(k, v);
    }
    let out = f();
    for (k, _) in pairs {
        std::env::remove_var(k);
    }
    out
}

fn test_db() -> Database {
    let db = Database::new();
    db.create_table("t", vec![Column::not_null("a", ColumnType::Int)], &["a"])
        .unwrap();
    db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();
    db
}

fn expect_config(result: Result<impl std::fmt::Debug, NraError>, var: &str) {
    match result {
        Err(NraError::Engine(EngineError::Config { var: v, detail, .. })) => {
            assert_eq!(v, var);
            assert!(!detail.is_empty());
        }
        other => panic!("expected a Config error for {var}, got {other:?}"),
    }
}

#[test]
fn malformed_fault_spec_is_a_structured_error() {
    let db = test_db();
    for bad in [
        "nonsense",
        "join-build:x:panic",
        "wal-apend:1:crash",
        "join-build:1:explode",
        // A kind the site's harness cannot fire arms nothing, so it is
        // rejected rather than left dormant.
        "join-build:1:crash",
        "wal-append:1:panic",
        "wal-append:1:alloc",
    ] {
        with_env(&[("NRA_FAULT", bad)], || {
            let err = db.execute("select a from t", &QueryOptions::new());
            expect_config(err, "NRA_FAULT");
            let msg = db
                .execute("select a from t", &QueryOptions::new())
                .unwrap_err()
                .to_string();
            assert!(msg.contains("invalid NRA_FAULT"), "spec `{bad}`: {msg}");
        });
    }
}

#[test]
fn malformed_mem_limit_and_batch_rows_are_structured_errors() {
    let db = test_db();
    with_env(&[("NRA_MEM_LIMIT", "1GB")], || {
        expect_config(
            db.execute("select a from t", &QueryOptions::new()),
            "NRA_MEM_LIMIT",
        );
    });
    with_env(&[("NRA_BATCH_ROWS", "0")], || {
        expect_config(
            db.execute("select a from t", &QueryOptions::new()),
            "NRA_BATCH_ROWS",
        );
    });
    with_env(&[("NRA_BATCH_ROWS", "lots")], || {
        expect_config(
            db.execute("select a from t", &QueryOptions::new()),
            "NRA_BATCH_ROWS",
        );
    });
}

#[test]
fn every_variable_rejects_malformed_values() {
    let db = test_db();
    for (var, bad) in [
        ("NRA_THREADS", "abc"),
        ("NRA_SLOW_MS", "soon"),
        ("NRA_MAX_CONCURRENT", "lots"),
        ("NRA_ADMISSION_TIMEOUT_MS", "x"),
        ("NRA_TRACE", "yes"),
    ] {
        with_env(&[(var, bad)], || {
            expect_config(db.execute("select a from t", &QueryOptions::new()), var);
        });
    }
}

#[test]
fn database_open_applies_the_same_gate() {
    let dir = std::env::temp_dir().join(format!("nra-config-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    with_env(&[("NRA_FAULT", "bogus")], || {
        expect_config(Database::open(&dir), "NRA_FAULT");
        assert!(!dir.exists(), "a refused open creates nothing");
    });
    with_env(&[("NRA_CHECKPOINT_EVERY", "often")], || {
        expect_config(Database::open(&dir), "NRA_CHECKPOINT_EVERY");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_values_still_work() {
    let db = test_db();
    // A well-formed spec naming engine and storage sites passes the
    // gate (the storage entries are simply dormant on a query).
    with_env(
        &[
            ("NRA_MEM_LIMIT", "1073741824"),
            ("NRA_BATCH_ROWS", "512"),
            ("NRA_FAULT", "wal-append:1:short-write"),
        ],
        || {
            let out = db.execute("select a from t", &QueryOptions::new()).unwrap();
            assert_eq!(out.rows.len(), 2);
        },
    );
}
