//! Command-line entry point of the benchmark; see the library docs.

use std::io::Write;
use std::process::ExitCode;

use nra::obs::json::escape;
use perfbench::run::{self, Args, Outcome, OUT_DIR};
use perfbench::workloads::{Workload, SCALE};

const USAGE: &str = "usage: perfbench --workload <paper-subq|point-mix|ingest-read> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| bad("a whole number of seconds >= 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: SCALE,
    })
}

fn provenance_json(args: &Args, outcome: &Outcome) -> String {
    let p = &outcome.provenance;
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"source_digest\":{},\
         \"workload\":{},\"seed\":{},\"scale\":{},\"seconds\":{},\"trace\":{}}}",
        p.nproc,
        escape(&p.cpu_model),
        escape(&p.rustc),
        escape(&p.git_commit),
        escape(&p.source_digest),
        escape(args.workload.name()),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape(&m.name),
                m.value,
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn report(args: &Args, outcome: &Outcome) -> String {
    let p = &outcome.provenance;
    let mut s = format!(
        "perfbench {} seed={} scale={} seconds={} trace={}\n\
         host: nproc={} cpu={:?} {}; commit {} (sources {})\n",
        args.workload.name(),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace),
        p.nproc,
        p.cpu_model,
        p.rustc,
        p.git_commit,
        p.source_digest
    );
    for section in &outcome.sections {
        s.push_str(section);
    }
    for f in &outcome.findings {
        s.push_str(&format!("finding: {f}\n"));
    }
    if let Some(path) = &outcome.spans_file {
        s.push_str(&format!("spans: {}\n", path.display()));
    }
    s.push_str(&format!(
        "{:<36} {:>14} {:<8} {:>8}  note\n",
        "metric", "value", "unit", "n"
    ));
    for m in &outcome.metrics {
        s.push_str(&format!(
            "{:<36} {:>14.6} {:<8} {:>8}  {}\n",
            m.name,
            m.value,
            m.unit,
            m.n.map_or("-".to_string(), |n| n.to_string()),
            m.note
        ));
    }
    s
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = format!(
        "{{\"provenance\":{},\"result\":{}}}",
        provenance_json(&args, &outcome),
        result_json(&outcome)
    );
    // The results log is a convenience; a failed append loses nothing
    // the standard output does not carry.
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(std::path::Path::new(OUT_DIR).join("results.jsonl"))
        .and_then(|mut f| f.write_all(format!("{record}\n").as_bytes()));
    print!("{}", report(&args, &outcome));
    println!("{{\"provenance\":{}}}", provenance_json(&args, &outcome));
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
