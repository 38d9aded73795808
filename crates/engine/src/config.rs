//! The typed process configuration: every `NRA_*` environment variable,
//! parsed strictly, in one place — no other module reads the environment.
//!
//! [`Config::from_env`] parses each variable with its own strict parser;
//! a malformed value is an [`EngineError::Config`] naming the variable,
//! never a setting that silently arms nothing. The facade takes one
//! snapshot per statement and applies it as that statement's overrides.
//! Code outside a statement (direct callers of the engine crates,
//! `Database` constructors) reads the [`ambient`] configuration: the
//! environment as first read, or the defaults if it was malformed — the
//! facade then reports the error on the first statement.
//!
//! `NRA_FAULT` has one grammar for both fault harnesses,
//! `site:nth[:kind[:ms]]` (comma-separated, every field trimmed), and
//! [`parse_faults`] is its one parser. Entries are routed by site:
//! engine sites ([`faultinject::SITES`]) take `alloc`, `panic` (default)
//! or `delay`; storage I/O sites ([`iofault::IO_SITES`]) take
//! `short-write`, `crash`, `io-error` (default) or `delay`. Only `delay`
//! takes `ms` (default 10). A kind the site's harness cannot fire is an
//! error, not a dormant entry.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::error::EngineError;
use crate::faultinject::{self, FaultKind, FaultPlan};
use crate::governor::AdmissionConfig;
use nra_storage::iofault::{self, IoFaultKind, IoFaultPlan};

/// One parsed `NRA_FAULT` entry — `(site, nth, kind)` — routed to the
/// harness owning its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEntry {
    Engine(String, u64, FaultKind),
    Io(String, u64, IoFaultKind),
}

/// Every `NRA_*` setting, typed; `None` / `false` means unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// `NRA_THREADS` (clamped to `1..=exec::MAX_THREADS` at use).
    pub threads: Option<usize>,
    /// `NRA_BATCH_ROWS`, at least 1.
    pub batch_rows: Option<usize>,
    /// `NRA_MEM_LIMIT`, bytes.
    pub mem_limit: Option<u64>,
    /// `NRA_FAULT`.
    pub faults: Vec<FaultEntry>,
    /// `NRA_METRICS` (an empty path is unset, as for every path).
    pub metrics_path: Option<PathBuf>,
    /// `NRA_TRACE`: `1` on, `0` off.
    pub trace_stderr: bool,
    /// `NRA_TRACE_FILE`.
    pub trace_file: Option<PathBuf>,
    /// `NRA_SLOW_MS`.
    pub slow_ms: Option<u64>,
    /// `NRA_SLOW_LOG`.
    pub slow_log: Option<PathBuf>,
    /// `NRA_MAX_CONCURRENT` (0 means 1, see [`Config::admission`]).
    pub max_concurrent: Option<u64>,
    /// `NRA_ADMISSION_MEM`, bytes.
    pub admission_mem: Option<u64>,
    /// `NRA_ADMISSION_TIMEOUT_MS`.
    pub admission_timeout_ms: Option<u64>,
    /// `NRA_CHECKPOINT_EVERY` (0 disables automatic checkpoints).
    pub checkpoint_every: Option<u64>,
    /// `NRA_SERVER_POLL_MS`, at least 1.
    pub server_poll_ms: Option<u64>,
}

impl Config {
    /// Read and strictly parse every `NRA_*` variable.
    pub fn from_env() -> Result<Config, EngineError> {
        Config::from_lookup(|var| match std::env::var(var) {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(v)) => Some(v.to_string_lossy().into_owned()),
        })
    }

    /// [`Config::from_env`] over any variable source (tests pass a table).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Config, EngineError> {
        let vars = Vars(lookup);
        let count = |var, detail| vars.number(var, 0, detail);
        Ok(Config {
            threads: count("NRA_THREADS", "must be a worker count")?.map(saturate),
            batch_rows: vars
                .number("NRA_BATCH_ROWS", 1, "must be a positive row count")?
                .map(saturate),
            mem_limit: count("NRA_MEM_LIMIT", "must be a byte count (plain integer)")?,
            faults: vars.parse("NRA_FAULT", parse_faults)?.unwrap_or_default(),
            metrics_path: vars.path("NRA_METRICS"),
            trace_stderr: vars.parse("NRA_TRACE", parse_switch)? == Some(true),
            trace_file: vars.path("NRA_TRACE_FILE"),
            slow_ms: count("NRA_SLOW_MS", "must be a millisecond count")?,
            slow_log: vars.path("NRA_SLOW_LOG"),
            max_concurrent: count("NRA_MAX_CONCURRENT", "must be a query count")?,
            admission_mem: count("NRA_ADMISSION_MEM", "must be a byte count")?,
            admission_timeout_ms: count("NRA_ADMISSION_TIMEOUT_MS", "must be a millisecond count")?,
            checkpoint_every: count("NRA_CHECKPOINT_EVERY", "must be a record count")?,
            server_poll_ms: vars.number(
                "NRA_SERVER_POLL_MS",
                1,
                "must be a positive millisecond count",
            )?,
        })
    }

    /// Fresh fault plans (hit counters at zero) for the `NRA_FAULT`
    /// entries: the engine's and the storage I/O harness's.
    pub fn fault_plans(&self) -> (FaultPlan, IoFaultPlan) {
        let (mut engine, mut io) = (FaultPlan::default(), IoFaultPlan::default());
        for entry in &self.faults {
            match entry {
                FaultEntry::Engine(site, nth, kind) => engine.push(site.clone(), *nth, *kind),
                FaultEntry::Io(site, nth, kind) => io.push(site, *nth, *kind),
            }
        }
        (engine, io)
    }

    /// The admission limits these settings describe, over
    /// [`AdmissionConfig::default`].
    pub fn admission(&self) -> AdmissionConfig {
        let mut admission = AdmissionConfig::default();
        if let Some(n) = self.max_concurrent {
            admission = admission.max_concurrent(saturate(n));
        }
        if let Some(bytes) = self.admission_mem {
            admission = admission.mem_cap_bytes(bytes);
        }
        if let Some(ms) = self.admission_timeout_ms {
            admission = admission.queue_timeout_ms(ms);
        }
        admission
    }
}

/// The configuration outside any statement (see the module docs).
pub fn ambient() -> &'static Config {
    static AMBIENT: OnceLock<Config> = OnceLock::new();
    AMBIENT.get_or_init(|| Config::from_env().unwrap_or_default())
}

/// A variable source plus the strict per-type parsers over it.
struct Vars<F>(F);

impl<F: Fn(&str) -> Option<String>> Vars<F> {
    /// Parse `var` (trimmed) when set; a failure names the variable, its
    /// raw value and the parser's detail.
    fn parse<T>(
        &self,
        var: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, EngineError> {
        let Some(value) = (self.0)(var) else {
            return Ok(None);
        };
        let parsed = parse(value.trim());
        parsed.map(Some).map_err(|detail| EngineError::Config {
            var: var.to_string(),
            value,
            detail,
        })
    }

    /// A plain decimal integer of at least `min`.
    fn number(&self, var: &str, min: u64, detail: &str) -> Result<Option<u64>, EngineError> {
        self.parse(var, |v| {
            let n = v.parse::<u64>().ok().filter(|&n| n >= min);
            n.ok_or_else(|| detail.to_string())
        })
    }

    fn path(&self, var: &str) -> Option<PathBuf> {
        (self.0)(var).filter(|p| !p.is_empty()).map(PathBuf::from)
    }
}

fn parse_switch(v: &str) -> Result<bool, String> {
    match v {
        "0" | "1" => Ok(v == "1"),
        _ => Err("must be 1 (on) or 0 (off)".to_string()),
    }
}

fn saturate(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

fn integer(entry: &str, what: &str, field: &str) -> Result<u64, String> {
    field
        .parse()
        .map_err(|_| format!("entry `{entry}`: {what} must be an integer, got `{field}`"))
}

/// Parse an `NRA_FAULT` value (the grammar in the module docs) into its
/// entries, or the detail of the first malformed one.
pub fn parse_faults(spec: &str) -> Result<Vec<FaultEntry>, String> {
    const ENGINE_KINDS: [&str; 3] = ["alloc", "panic", "delay"];
    const IO_KINDS: [&str; 4] = ["short-write", "crash", "io-error", "delay"];
    let mut entries = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').map(str::trim).collect();
        if parts.len() > 4 {
            return Err(format!("entry `{entry}` has too many `:` fields"));
        }
        let site = parts[0];
        let engine = faultinject::SITES.contains(&site);
        if !engine && !iofault::IO_SITES.contains(&site) {
            return Err(format!(
                "unknown fault site `{site}` (known: {}, {})",
                faultinject::SITES.join(", "),
                iofault::IO_SITES.join(", ")
            ));
        }
        let Some(nth) = parts.get(1) else {
            return Err(format!("entry `{entry}` is missing the `nth` field"));
        };
        let nth = integer(entry, "`nth`", nth)?;
        let (kinds, default): (&[&str], _) = match engine {
            true => (&ENGINE_KINDS, "panic"),
            false => (&IO_KINDS, "io-error"),
        };
        let kind = parts.get(2).copied().unwrap_or(default);
        if !kinds.contains(&kind) {
            let known = ENGINE_KINDS.contains(&kind) || IO_KINDS.contains(&kind);
            return Err(match known {
                true => format!(
                    "entry `{entry}`: site `{site}` cannot fire `{kind}` (its kinds: {})",
                    kinds.join(", ")
                ),
                false => format!("entry `{entry}`: unknown fault kind `{kind}`"),
            });
        }
        let ms = match parts.get(3) {
            Some(_) if kind != "delay" => {
                return Err(format!(
                    "entry `{entry}`: only `delay` takes a milliseconds field"
                ));
            }
            Some(ms) => integer(entry, "milliseconds", ms)?,
            None => 10,
        };
        let site = site.to_string();
        entries.push(match kind {
            "alloc" => FaultEntry::Engine(site, nth, FaultKind::AllocFail),
            "panic" => FaultEntry::Engine(site, nth, FaultKind::Panic),
            "delay" if engine => FaultEntry::Engine(site, nth, FaultKind::Delay(ms)),
            "delay" => FaultEntry::Io(site, nth, IoFaultKind::Delay(ms)),
            "short-write" => FaultEntry::Io(site, nth, IoFaultKind::ShortWrite),
            "crash" => FaultEntry::Io(site, nth, IoFaultKind::Crash),
            _ => FaultEntry::Io(site, nth, IoFaultKind::IoError),
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Result<Config, EngineError> {
        Config::from_lookup(|var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn valid_specs_pass() {
        for spec in [
            "join-build:1:panic",
            "nest-flush:3:alloc, linking-scan:2",
            "partition-merge:1:delay:25",
            "wal-append:1:short-write,wal-fsync:2:crash",
            "checkpoint-write:1:io-error,snapshot-rename:1:crash",
            "wal-append: 2 :crash",
            "",
            " , ",
        ] {
            assert!(parse_faults(spec).is_ok(), "spec `{spec}` rejected");
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_detail() {
        let cases = [
            ("nonsense", "unknown fault site"),
            ("join-build", "missing the `nth`"),
            ("join-build:x:panic", "`nth` must be an integer"),
            ("join-build:2:explode", "unknown fault kind"),
            ("wal-apend:1:crash", "unknown fault site"),
            ("join-build:1:panic:50", "only `delay`"),
            ("join-build:1:delay:soon", "milliseconds must be an integer"),
            ("join-build:1:delay:5:x", "too many"),
            ("join-build:1:crash", "cannot fire `crash`"),
            ("wal-append:1:panic", "cannot fire `panic`"),
            ("wal-append:1:alloc", "cannot fire `alloc`"),
        ];
        for (spec, needle) in cases {
            let err = parse_faults(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: got `{err}`");
        }
    }

    #[test]
    fn one_parser_routes_entries_to_both_harnesses() {
        let entries = parse_faults(
            "join-build:1:panic, nest-flush:3:alloc,linking-scan:2,\
             wal-append: 2 :short-write,wal-fsync:1,nest-flush:1:delay,wal-append:1:delay:5",
        )
        .unwrap();
        let engine = |site: &str, nth, kind| FaultEntry::Engine(site.into(), nth, kind);
        let io = |site: &str, nth, kind| FaultEntry::Io(site.into(), nth, kind);
        assert_eq!(
            entries,
            vec![
                engine("join-build", 1, FaultKind::Panic),
                engine("nest-flush", 3, FaultKind::AllocFail),
                // Kind defaults per harness: panic for engine sites…
                engine("linking-scan", 2, FaultKind::Panic),
                // …and whitespace is trimmed in every field.
                io("wal-append", 2, IoFaultKind::ShortWrite),
                // …io-error for I/O sites.
                io("wal-fsync", 1, IoFaultKind::IoError),
                engine("nest-flush", 1, FaultKind::Delay(10)),
                io("wal-append", 1, IoFaultKind::Delay(5)),
            ]
        );
        let config = parse(&[("NRA_FAULT", "join-build:1,wal-fsync:1:crash")]).unwrap();
        let (engine, io) = config.fault_plans();
        assert!(!engine.is_empty() && !io.is_empty());
        let (engine, io) = Config::default().fault_plans();
        assert!(engine.is_empty() && io.is_empty());
    }

    #[test]
    fn every_variable_parses_typed_values() {
        let config = parse(&[
            ("NRA_THREADS", " 4 "),
            ("NRA_BATCH_ROWS", "3"),
            ("NRA_MEM_LIMIT", "1024"),
            ("NRA_METRICS", "/tmp/m.jsonl"),
            ("NRA_TRACE", "1"),
            ("NRA_TRACE_FILE", "t.jsonl"),
            ("NRA_SLOW_MS", "0"),
            ("NRA_SLOW_LOG", ""),
            ("NRA_MAX_CONCURRENT", "0"),
            ("NRA_ADMISSION_MEM", "99"),
            ("NRA_ADMISSION_TIMEOUT_MS", "5"),
            ("NRA_CHECKPOINT_EVERY", "0"),
            ("NRA_SERVER_POLL_MS", "10"),
        ])
        .unwrap();
        assert_eq!(config.threads, Some(4));
        assert_eq!(config.batch_rows, Some(3));
        assert_eq!(config.mem_limit, Some(1024));
        assert_eq!(config.metrics_path, Some(PathBuf::from("/tmp/m.jsonl")));
        assert!(config.trace_stderr);
        assert_eq!(config.trace_file, Some(PathBuf::from("t.jsonl")));
        assert_eq!(config.slow_ms, Some(0));
        assert_eq!(config.slow_log, None, "an empty path is unset");
        assert_eq!(config.checkpoint_every, Some(0));
        assert_eq!(config.server_poll_ms, Some(10));
        // Clamping is kept: a zero concurrency cap means one query.
        let admission = config.admission();
        assert_eq!(admission.max_concurrent, Some(1));
        assert_eq!(admission.mem_cap_bytes, Some(99));
        assert_eq!(admission.queue_timeout_ms, 5);
        assert_eq!(parse(&[]).unwrap(), Config::default());
        assert!(!parse(&[("NRA_TRACE", "0")]).unwrap().trace_stderr);
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (var, value) in [
            ("NRA_THREADS", "abc"),
            ("NRA_BATCH_ROWS", "0"),
            ("NRA_BATCH_ROWS", "lots"),
            ("NRA_MEM_LIMIT", "1GB"),
            ("NRA_FAULT", "join-build:1:crash"),
            ("NRA_TRACE", "yes"),
            ("NRA_SLOW_MS", "soon"),
            ("NRA_MAX_CONCURRENT", "lots"),
            ("NRA_ADMISSION_MEM", "-1"),
            ("NRA_ADMISSION_TIMEOUT_MS", "x"),
            ("NRA_CHECKPOINT_EVERY", "often"),
            ("NRA_SERVER_POLL_MS", "0"),
            ("NRA_SERVER_POLL_MS", ""),
        ] {
            match parse(&[(var, value)]) {
                Err(EngineError::Config {
                    var: v,
                    value: got,
                    detail,
                }) => {
                    assert_eq!((v.as_str(), got.as_str()), (var, value));
                    assert!(!detail.is_empty());
                }
                other => panic!("{var}=`{value}`: expected a Config error, got {other:?}"),
            }
        }
    }
}
