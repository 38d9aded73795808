//! End-to-end protocol tests: a real listener on an ephemeral port,
//! real client sockets, concurrent connections, clean shutdown.

use nra::storage::{Column, ColumnType, Value};
use nra::Database;
use nra_server::{serve, Client};

fn seeded_db() -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        vec![
            Column::not_null("k", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
        &["k"],
    )
    .unwrap();
    db.insert(
        "t",
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn ping_query_and_quit() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let pong = client.query(".ping").unwrap();
    assert_eq!(pong.rows.len(), 0);

    let out = client.query("select k from t where k < 3").unwrap();
    assert_eq!(out.columns, vec!["t.k"], "projection headers are qualified");
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0], vec!["0"]);

    let bye = client.query(".quit").unwrap();
    assert_eq!(bye.rows.len(), 0);
    handle.shutdown();
}

#[test]
fn session_ids_are_distinct_per_connection() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let ida = a.query(".session").unwrap().rows[0][0].clone();
    let idb = b.query(".session").unwrap().rows[0][0].clone();
    assert_ne!(ida, idb, "each connection gets its own session");
    assert_ne!(ida, "0", "server sessions are never the one-shot id");
    handle.shutdown();
}

#[test]
fn errors_are_framed_not_fatal() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client.query("select nope from nowhere").unwrap_err();
    assert!(err.starts_with("sql:"), "{err}");

    let err = client.query(".set bogus 1").unwrap_err();
    assert!(err.starts_with("protocol:"), "{err}");

    // The connection survives an error.
    let out = client.query("select k from t where k = 1").unwrap();
    assert_eq!(out.rows.len(), 1);
    handle.shutdown();
}

#[test]
fn set_prepare_exec_roundtrip() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    client.query(".set threads 1").unwrap();
    client.query(".set engine original").unwrap();
    client
        .query(".prepare low select k from t where k < 5")
        .unwrap();
    let out = client.query(".exec low").unwrap();
    assert_eq!(out.rows.len(), 5);

    let err = client.query(".exec missing").unwrap_err();
    assert!(err.contains("missing"), "{err}");

    // Prepared statements fail validation at prepare time.
    let err = client
        .query(".prepare bad select x from nowhere")
        .unwrap_err();
    assert!(err.starts_with("sql:"), "{err}");
    handle.shutdown();
}

#[test]
fn set_plan_cache_off_disables_the_cache() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let cached = |client: &mut Client| {
        client
            .query("select statement from nra_sys.plan_cache")
            .unwrap()
            .rows
            .into_iter()
            .any(|r| r[0].contains("42"))
    };

    client.query(".set plan_cache off").unwrap();
    for _ in 0..2 {
        client.query("select v from t where k = 42").unwrap();
    }
    assert!(!cached(&mut client), "`off` must keep the plan cache off");

    client.query(".set plan_cache on").unwrap();
    for _ in 0..2 {
        client.query("select v from t where k = 42").unwrap();
    }
    assert!(cached(&mut client), "`on` turns the plan cache back on");

    let err = client.query(".set plan_cache yes").unwrap_err();
    assert!(
        err.starts_with("protocol:") && err.contains("`yes`"),
        "{err}"
    );
    handle.shutdown();
}

#[test]
fn string_values_roundtrip_escaping() {
    let db = Database::new();
    db.create_table(
        "s",
        vec![
            Column::not_null("k", ColumnType::Int),
            Column::new("txt", ColumnType::Str),
        ],
        &["k"],
    )
    .unwrap();
    db.insert(
        "s",
        vec![vec![
            Value::Int(1),
            Value::Str("tab\there\nand line".into()),
        ]],
    )
    .unwrap();
    let handle = serve(db, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let out = client.query("select txt from s").unwrap();
    assert_eq!(out.rows[0][0], "'tab\there\nand line'");
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_agree() {
    let db = seeded_db();
    let expected = db
        .connect()
        .execute("select k from t where v = 3")
        .unwrap()
        .rows
        .len();
    let handle = serve(db, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rows = 0;
                for _ in 0..20 {
                    rows = client
                        .query("select k from t where v = 3")
                        .unwrap()
                        .rows
                        .len();
                }
                rows
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), expected);
    }
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_for_new_connects() {
    let handle = serve(seeded_db(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.query("select k from t where k = 0").unwrap();
    handle.shutdown();
    // After shutdown the listener is gone: either the connect fails or
    // the socket is closed without a response frame.
    if let Ok(mut c) = Client::connect(addr) {
        assert!(c.query(".ping").is_err(), "server still answering");
    }
}
