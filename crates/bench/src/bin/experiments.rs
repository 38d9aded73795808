//! Reproduce every figure/table of the paper's evaluation (Section 5) and
//! print paper-style series as markdown.
//!
//! ```sh
//! cargo run --release -p nra-bench --bin experiments -- [--scale 0.5] [--reps 3] [fig4 fig5 ...]
//! ```
//!
//! Observability flags (see `nra_bench::baseline` for the regression
//! tracker; baselines are committed at scale 0.02, so pass `--scale 0.02`
//! when writing or checking):
//!
//! * `--profile` — write `BENCH_*.json` per-operator profiles to the cwd
//! * `--baseline-write` — refresh `crates/bench/baselines/BENCH_*.json`
//! * `--baseline-check` — diff fresh profiles against the committed
//!   baselines; non-zero exit + per-operator delta table on regression
//! * `--wall-factor <f>` — wall-time tolerance band for the check
//! * `--trace` — trace the paper's Query Q, write `TRACE_QQ.jsonl`
//! * `--threads <n>` — worker budget for the partition-parallel executor
//!   (also enables the `parallel` section: sequential vs parallel wall
//!   time on Q2a/Q2b for the nested relational series)
//! * `--batch-size <n>` — rows per `ValueBatch` for the vectorized
//!   executors (default 1024; also settable via `NRA_BATCH_ROWS`)
//! * `--metrics <path>` — run the headline queries through the facade
//!   with metrics collection and write the process-cumulative registry
//!   as JSONL to `<path>`
//! * `--slow-log <path>` — run the headline queries with a zero
//!   slow-query threshold appending to `<path>`, then schema-validate
//!   the whole log; non-zero exit on a malformed record
//!
//! An unknown `--flag` is an error (non-zero exit naming it). Any bare
//! word that names no figure (e.g. `none`) selects no figures, so
//! `experiments --scale 0.02 --profile none` runs only the profiles.
//!
//! End-to-end and per-layer timing (wire latency, per-strategy kernel
//! time, recovery) is `perfbench`'s job; see `perfbench/README.md`.
//!
//! Figures (paper → here):
//!
//! * Fig 4  — Query 1 (`> ALL`), outer 4K–16K; native = nested iteration
//!   (constraint dropped), plus the NOT-NULL ablation where the native
//!   plan becomes an antijoin.
//! * Fig 5  — Query 2a (mixed `ANY`/`NOT EXISTS`); native = bottom-up
//!   semijoin + antijoin.
//! * Fig 6  — Query 2b (negative `ALL`/`NOT EXISTS`); native falls back to
//!   nested iteration (constraint dropped).
//! * Fig 7a–c — Query 3a (mixed `ALL`/`EXISTS`), three correlation
//!   variants; Fig 8a–c — Query 3b (negative); Fig 9a–c — Query 3c
//!   (positive).
//! * nrcost — the §5.2 in-text numbers: nest+linking-selection processing
//!   time, original vs optimized, against intermediate-result size.

use nra_bench::*;
use nra_storage::Catalog;

struct Args {
    scale: f64,
    reps: usize,
    /// Write `BENCH_*.json` per-operator execution profiles.
    profile: bool,
    /// Refresh the committed baselines under `crates/bench/baselines/`.
    baseline_write: bool,
    /// Compare fresh profiles against the committed baselines; exit
    /// non-zero with a per-operator delta table on regression.
    baseline_check: bool,
    /// Wall-time tolerance factor for `--baseline-check`
    /// (`--wall-factor`, default 10).
    wall_factor: f64,
    /// Write `TRACE_QQ.jsonl`: the query-lifecycle trace of the paper's
    /// Query Q.
    trace: bool,
    /// Worker budget for the partition-parallel executor (`--threads`;
    /// default: the `NRA_THREADS` environment variable, else 1).
    threads: Option<usize>,
    /// Rows per `ValueBatch` for the vectorized executors
    /// (`--batch-size`; default: `NRA_BATCH_ROWS`, else 1024).
    batch_rows: Option<usize>,
    /// Write the process-cumulative metrics registry as JSONL here.
    metrics: Option<std::path::PathBuf>,
    /// Run the headline queries with a zero slow-query threshold,
    /// appending their records to this JSONL log, then schema-validate
    /// the whole file; exit non-zero on a malformed record.
    slow_log: Option<std::path::PathBuf>,
    figures: Vec<String>,
}

/// The value following `flag`, parsed; `what` names the expected kind.
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} takes {what}"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: 0.5,
        reps: 3,
        profile: false,
        baseline_write: false,
        baseline_check: false,
        wall_factor: baseline::Tolerance::default().wall_factor,
        trace: false,
        threads: None,
        batch_rows: None,
        metrics: None,
        slow_log: None,
        figures: vec![],
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = flag_value(&mut it, &a, "a number")?,
            "--reps" => args.reps = flag_value(&mut it, &a, "an integer")?,
            "--profile" => args.profile = true,
            "--baseline-write" => args.baseline_write = true,
            "--baseline-check" => args.baseline_check = true,
            "--wall-factor" => args.wall_factor = flag_value(&mut it, &a, "a number")?,
            "--trace" => args.trace = true,
            "--metrics" => args.metrics = Some(flag_value(&mut it, &a, "a path")?),
            "--slow-log" => args.slow_log = Some(flag_value(&mut it, &a, "a path")?),
            "--threads" => args.threads = Some(flag_value(&mut it, &a, "a worker count")?),
            "--batch-size" => args.batch_rows = Some(flag_value(&mut it, &a, "a row count")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            figure => args.figures.push(figure.to_string()),
        }
    }
    Ok(args)
}

fn wanted(args: &Args, fig: &str) -> bool {
    args.figures.is_empty() || args.figures.iter().any(|f| f == fig)
}

/// Run one figure: a sweep of prepared queries, one row per size label.
///
/// Each point is reported as the *estimated elapsed time in the paper's
/// environment* — measured CPU time plus simulated disk I/O (sequential
/// scans vs random index probes through a buffer cache covering ~3.2% of
/// the data, as in the paper's 1 GB / 32 MB setup) — followed by the CPU
/// and I/O breakdown.
fn figure(title: &str, rows: Vec<(String, PreparedQuery<'_>)>, reps: usize) {
    println!("### {title}\n");
    if let Some((_, pq)) = rows.first() {
        println!("native plan: {}\n", pq.native_plan_label());
    }
    println!(
        "| block sizes | native est (s) | nr-original est (s) | nr-optimized est (s)          | native cpu/io | nr-orig cpu/io | nr-opt cpu/io | rows |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (label, pq) in rows {
        let io_cfg = io_config_for(pq.catalog);
        let mut est = Vec::new();
        let mut brk = Vec::new();
        let mut rows_out = None;
        for series in Series::ALL {
            let m = pq.measure(series, reps, &io_cfg);
            match rows_out {
                None => rows_out = Some(m.rows),
                Some(r) => assert_eq!(r, m.rows, "series disagree on {label} ({})", pq.sql),
            }
            est.push(format!("{:.3}", m.est_secs));
            brk.push(format!(
                "{:.3}s / {}s+{}r",
                m.cpu_secs, m.io.seq_pages, m.io.rand_misses
            ));
        }
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} |",
            est[0],
            est[1],
            est[2],
            brk[0],
            brk[1],
            brk[2],
            rows_out.unwrap()
        );
    }
    println!();
}

fn fig4(cat_nullable: &Catalog, cat_strict: &Catalog, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_sql(cat_nullable, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat_nullable, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Figure 4 — Query 1 (> ALL, one level); NOT NULL dropped",
        rows,
        args.reps,
    );

    // The in-text ablation: with the NOT NULL constraint, System A uses an
    // antijoin and "the performance is about the same as ours".
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_sql(cat_strict, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat_strict, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Figure 4 ablation — Query 1 with NOT NULL (native antijoins)",
        rows,
        args.reps,
    );
}

fn fig_q2(cat: &Catalog, quant: Quant, title: &str, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q23_part
        .iter()
        .map(|&part| {
            let sql = q2_sql(cat, quant, part, grid.q23_partsupp);
            (
                format!("{part}/{}/li", grid.q23_partsupp),
                PreparedQuery::new(cat, sql).unwrap(),
            )
        })
        .collect();
    figure(title, rows, args.reps);
}

fn fig_q3(cat: &Catalog, quant: Quant, exists: ExistsKind, fig_no: usize, name: &str, args: &Args) {
    let grid = paper_grid(args.scale);
    for corr in [Q3Corr::EqEq, Q3Corr::NeEq, Q3Corr::EqNe] {
        let rows = grid
            .q23_part
            .iter()
            .map(|&part| {
                let sql = q3_sql(cat, quant, exists, corr, part, grid.q23_partsupp);
                (
                    format!("{part}/{}/li", grid.q23_partsupp),
                    PreparedQuery::new(cat, sql).unwrap(),
                )
            })
            .collect();
        figure(
            &format!(
                "Figure {fig_no}{} — {name}, correlated predicates {}",
                match corr {
                    Q3Corr::EqEq => "a",
                    Q3Corr::NeEq => "b",
                    Q3Corr::EqNe => "c",
                },
                corr.label()
            ),
            rows,
            args.reps,
        );
    }
}

/// Extension (beyond the paper): the aggregate form of Query 1
/// (`o_totalprice > (select max(l_extendedprice) ...)`), evaluated by the
/// same machinery — the set is folded instead of quantified. The native
/// plan must nested-iterate (no antijoin form exists for aggregates here).
fn ext_agg(cat: &Catalog, args: &Args) {
    let grid = paper_grid(args.scale);
    let rows = grid
        .q1_outer
        .iter()
        .map(|&outer| {
            let sql = q1_agg_sql(cat, outer);
            (
                format!("{outer}/q1-inner"),
                PreparedQuery::new(cat, sql).unwrap(),
            )
        })
        .collect();
    figure(
        "Extension — Query 1 with `> (select max(...))` (aggregate subquery)",
        rows,
        args.reps,
    );
}

/// Render a speedup ratio, refusing to divide noise by noise: below
/// ~0.5 ms the subtraction-based isolation is inside timer jitter.
fn speedup(original: f64, optimized: f64) -> String {
    if original < 5e-4 || optimized < 5e-4 {
        "n/a (below timer resolution; raise --scale/--reps)".to_string()
    } else {
        format!("{:.1}x", original / optimized)
    }
}

fn nrcost(cat: &Catalog, args: &Args) {
    println!("### §5.2 in-text — NR processing cost (nest + linking selection only)\n");
    println!("| query | intermediate rows | original (s) | optimized (s) | speedup |");
    println!("|---|---|---|---|---|");
    let grid = paper_grid(args.scale);
    for &outer in &grid.q1_outer {
        let sql = q1_sql(cat, outer);
        let c = nr_processing_cost(cat, &sql, args.reps).unwrap();
        println!(
            "| Q1 outer={outer} | {} | {:.4} | {:.4} | {} |",
            c.intermediate_rows,
            c.original_secs,
            c.optimized_secs,
            speedup(c.original_secs, c.optimized_secs)
        );
    }
    for &part in &grid.q23_part {
        let sql = q2_sql(cat, Quant::All, part, grid.q23_partsupp);
        let c = nr_processing_cost(cat, &sql, args.reps).unwrap();
        println!(
            "| Q2 part={part} | {} | {:.4} | {:.4} | {} |",
            c.intermediate_rows,
            c.original_secs,
            c.optimized_secs,
            speedup(c.original_secs, c.optimized_secs)
        );
    }
    println!();
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let _thread_budget = args
        .threads
        .map(|n| nra::engine::exec::set_threads(Some(n)));
    let _batch_width = args
        .batch_rows
        .map(|n| nra::engine::vec::set_batch_rows(Some(n)));
    println!(
        "# Paper experiment reproduction (scale {}, {} reps per point, {} thread(s), {} batch rows)\n",
        args.scale,
        args.reps,
        nra::engine::exec::threads(),
        nra::engine::vec::batch_rows()
    );
    eprintln!("generating data at scale {} ...", args.scale);
    let strict = bench_catalog(args.scale);
    let nullable = bench_catalog_nullable(args.scale);
    for t in ["orders", "lineitem", "part", "partsupp"] {
        println!("- {t}: {} rows", strict.table(t).unwrap().len());
    }
    println!();

    if wanted(&args, "fig4") {
        fig4(&nullable, &strict, &args);
    }
    if wanted(&args, "fig5") {
        fig_q2(
            &strict,
            Quant::Any,
            "Figure 5 — Query 2a (mixed ANY / NOT EXISTS, linear)",
            &args,
        );
    }
    if wanted(&args, "fig6") {
        fig_q2(
            &nullable,
            Quant::All,
            "Figure 6 — Query 2b (negative ALL / NOT EXISTS); NOT NULL dropped",
            &args,
        );
    }
    if wanted(&args, "fig7") {
        fig_q3(
            &strict,
            Quant::All,
            ExistsKind::Exists,
            7,
            "Query 3a (mixed ALL / EXISTS)",
            &args,
        );
    }
    if wanted(&args, "fig8") {
        fig_q3(
            &strict,
            Quant::All,
            ExistsKind::NotExists,
            8,
            "Query 3b (negative ALL / NOT EXISTS)",
            &args,
        );
    }
    if wanted(&args, "fig9") {
        fig_q3(
            &strict,
            Quant::Any,
            ExistsKind::Exists,
            9,
            "Query 3c (positive ANY / EXISTS)",
            &args,
        );
    }
    if wanted(&args, "nrcost") {
        nrcost(&strict, &args);
    }
    if wanted(&args, "ext-agg") {
        ext_agg(&strict, &args);
    }
    if wanted(&args, "parallel") && args.threads.is_some_and(|n| n > 1) {
        parallel_speedup(&strict, &nullable, &args);
    }
    if args.trace {
        trace_query_q();
    }
    if let Some(path) = &args.metrics {
        write_metrics(path, &strict, &nullable, &args);
    }
    if let Some(path) = &args.slow_log {
        write_slow_log(path, &strict, &nullable, &args);
    }
    if args.profile || args.baseline_write || args.baseline_check {
        let profiles = collect_profiles(&strict, &nullable, &args);
        if args.profile {
            let dir = std::env::current_dir().expect("cwd");
            println!("### Execution profiles\n");
            for qp in &profiles {
                let path = qp.write_to(&dir).expect("write profile artifact");
                println!("- wrote {}", path.display());
            }
            println!();
        }
        if args.baseline_write {
            println!("### Baselines\n");
            for qp in &profiles {
                let path = baseline::write_baseline(qp).expect("write baseline");
                println!("- wrote {}", path.display());
            }
            println!();
        }
        if args.baseline_check {
            check_baselines(&profiles, &args);
        }
    }
}

/// The tentpole's headline measurement: wall time of the nested relational
/// series on the join-heavy Query 2 variants, sequential vs the
/// `--threads` budget, on identical data. The result relations are
/// asserted identical, so any speedup is pure scheduling.
fn parallel_speedup(strict: &Catalog, nullable: &Catalog, args: &Args) {
    let threads = args.threads.unwrap_or(1);
    let grid = paper_grid(args.scale);
    let part = *grid.q23_part.last().unwrap();
    let queries: Vec<(&str, &Catalog, String)> = vec![
        (
            "Q2A",
            strict,
            q2_sql(strict, Quant::Any, part, grid.q23_partsupp),
        ),
        (
            "Q2B",
            nullable,
            q2_sql(nullable, Quant::All, part, grid.q23_partsupp),
        ),
    ];
    println!("### Partition-parallel speedup (1 thread vs {threads} threads)\n");
    println!("| query | series | 1 thread (s) | {threads} threads (s) | speedup | rows |");
    println!("|---|---|---|---|---|---|");
    for (name, cat, sql) in &queries {
        let pq = PreparedQuery::new(cat, sql.clone()).unwrap();
        for series in [Series::NrOriginal, Series::NrOptimized] {
            let (seq_secs, seq_rows) = {
                let _g = nra::engine::exec::set_threads(Some(1));
                pq.time(series, args.reps)
            };
            let (par_secs, par_rows) = {
                let _g = nra::engine::exec::set_threads(Some(threads));
                pq.time(series, args.reps)
            };
            assert_eq!(
                seq_rows, par_rows,
                "parallel execution changed the result of {name} ({series:?})"
            );
            println!(
                "| {name} | {} | {seq_secs:.4} | {par_secs:.4} | {} | {seq_rows} |",
                series.label(),
                speedup(seq_secs, par_secs)
            );
        }
    }
    println!();
}

/// The three headline queries (largest grid point each) shared by the
/// profile baselines, the metrics export and the slow-query log.
fn headline_queries<'a>(
    strict: &'a Catalog,
    nullable: &'a Catalog,
    scale: f64,
) -> Vec<(&'static str, &'a Catalog, String)> {
    let grid = paper_grid(scale);
    let q1_outer = *grid.q1_outer.last().unwrap();
    let part = *grid.q23_part.last().unwrap();
    vec![
        ("Q1", nullable, q1_sql(nullable, q1_outer)),
        (
            "Q2A",
            strict,
            q2_sql(strict, Quant::Any, part, grid.q23_partsupp),
        ),
        (
            "Q2B",
            nullable,
            q2_sql(nullable, Quant::All, part, grid.q23_partsupp),
        ),
    ]
}

/// Collect per-operator execution profiles for the headline queries: every
/// series runs once under the observability collector + I/O simulator.
fn collect_profiles(
    strict: &Catalog,
    nullable: &Catalog,
    args: &Args,
) -> Vec<profile::QueryProfile> {
    headline_queries(strict, nullable, args.scale)
        .into_iter()
        .map(|(name, cat, sql)| {
            let pq = PreparedQuery::new(cat, sql).unwrap();
            profile::QueryProfile::collect(name, &pq, args.scale)
        })
        .collect()
}

/// `--metrics <path>`: run the headline queries through the facade with
/// per-query metrics collection, then write the process-cumulative
/// registry (queries, rows, operator counters, Q-error histogram) as
/// JSONL.
fn write_metrics(path: &std::path::Path, strict: &Catalog, nullable: &Catalog, args: &Args) {
    for (name, cat, sql) in headline_queries(strict, nullable, args.scale) {
        let db = nra::Database::from_catalog(cat.clone());
        let session = db.connect();
        session
            .execute_with(
                &sql,
                &nra::QueryOptions::new()
                    .strategy(nra::Strategy::Original)
                    .collect_metrics(true),
            )
            .unwrap_or_else(|e| panic!("headline query {name} runs: {e}"));
    }
    let snapshot = nra::obs::metrics::global().snapshot();
    std::fs::write(path, snapshot.to_jsonl()).expect("write metrics export");
    println!("- wrote {}\n", path.display());
}

/// `--slow-log <path>`: run the headline queries with a zero slow-query
/// threshold (every query logs) appending to `path`, then re-parse the
/// whole file against the record schema — the CI gate that keeps the
/// slow-query log machine-readable.
fn write_slow_log(path: &std::path::Path, strict: &Catalog, nullable: &Catalog, args: &Args) {
    for (name, cat, sql) in headline_queries(strict, nullable, args.scale) {
        let db = nra::Database::from_catalog(cat.clone());
        let session = db.connect();
        session
            .execute_with(
                &sql,
                &nra::QueryOptions::new()
                    .strategy(nra::Strategy::Original)
                    .collect_profile(true)
                    .slow_ms(0)
                    .slow_log(path),
            )
            .unwrap_or_else(|e| panic!("headline query {name} runs: {e}"));
    }
    let contents = std::fs::read_to_string(path).expect("read slow-query log");
    match nra::obs::slowlog::validate_lines(&contents) {
        Ok(n) => println!(
            "- slow-query log {} valid ({n} record(s))\n",
            path.display()
        ),
        Err(e) => {
            eprintln!("slow-query log {} INVALID: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `--baseline-check`: exact diff on counters and I/O pages, tolerance
/// band on wall time, non-zero exit with a delta table on regression.
fn check_baselines(profiles: &[profile::QueryProfile], args: &Args) {
    let tol = baseline::Tolerance {
        wall_factor: args.wall_factor,
        ..baseline::Tolerance::default()
    };
    println!("### Baseline check\n");
    let mut failed = false;
    for qp in profiles {
        match baseline::check_profile(qp, &tol) {
            Ok(report) => {
                print!("{}", report.render_markdown());
                failed |= !report.passed();
            }
            Err(e) => {
                println!("- `{}`: **error** — {e}", qp.name);
                failed = true;
            }
        }
    }
    println!();
    if failed {
        eprintln!("baseline check FAILED (see delta tables above)");
        std::process::exit(1);
    }
    println!("baseline check passed\n");
}

/// `--trace`: run the paper's Query Q over the Section 2 example catalog
/// with query-lifecycle tracing, print the span tree, and write the JSONL
/// event stream as `TRACE_QQ.jsonl` (the CI artifact).
fn trace_query_q() {
    let db = nra::Database::from_catalog(nra::tpch::paper_example::rst_catalog());
    let out = db
        .connect()
        .execute_with(
            nra::tpch::paper_example::QUERY_Q,
            &nra::QueryOptions::new().collect_trace(true),
        )
        .expect("paper's Query Q runs");
    let trace = out.trace.expect("trace collected");
    println!("### Query-lifecycle trace of the paper's Query Q\n");
    println!("```");
    print!("{}", trace.render_tree());
    println!("-- {} row(s)", out.rows.len());
    println!("```\n");
    let path = std::env::current_dir().expect("cwd").join("TRACE_QQ.jsonl");
    std::fs::write(&path, trace.to_jsonl()).expect("write trace artifact");
    println!("- wrote {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for bad in ["--record", "--baseline-chek", "--serve", "--db"] {
            let err = parse(&["--scale", "0.02", bad, "none"]).err().unwrap();
            assert!(err.contains(bad), "{bad}: {err}");
        }
        let err = parse(&["--scale", "x"]).err().unwrap();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn known_flags_and_positionals_parse() {
        let args = parse(&["--scale", "0.02", "--profile", "none"]).unwrap();
        assert_eq!(args.scale, 0.02);
        assert!(args.profile && !args.baseline_check);
        assert_eq!(args.figures, vec!["none"]);
        assert!(!wanted(&args, "fig4"), "`none` selects no figure");

        let args = parse(&["--threads", "4", "--batch-size", "3", "parallel"]).unwrap();
        assert_eq!((args.threads, args.batch_rows), (Some(4), Some(3)));
        assert!(wanted(&args, "parallel") && !wanted(&args, "fig5"));
        assert!(
            wanted(&parse(&[]).unwrap(), "fig5"),
            "no positional selects all"
        );
    }
}
