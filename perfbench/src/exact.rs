//! Counts that must repeat exactly between runs of the same code, seed
//! and settings: rows examined by scans, WAL appends, fsyncs and bytes,
//! checkpoints, replayed records, and `paper-subq`'s plan-cache misses.
//! Each run stores its counts under a key naming all of those inputs and
//! compares them with what an earlier run stored under the same key; any
//! difference is reported as nondeterminism, never averaged away.

use std::path::Path;

use nra::obs::json::{escape, Json};

/// Compare `counts` with those stored under `key` in `dir` (if any),
/// then store them. Returns one message per drifted count.
pub fn compare_and_store(dir: &Path, key: &str, counts: &[(String, u64)]) -> Vec<String> {
    let path = dir.join(format!("{key}.json"));
    let mut drift = Vec::new();
    if let Some(stored) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
    {
        for (name, value) in counts {
            if let Some(old) = stored.get(name).and_then(Json::as_u64) {
                if old != *value {
                    drift.push(format!(
                        "NONDETERMINISM {name}: {value} in this run, {old} in an earlier run of {key}"
                    ));
                }
            }
        }
    }
    let body: Vec<String> = counts
        .iter()
        .map(|(name, value)| format!("{}:{value}", escape(name)))
        .collect();
    // A failed store only loses the comparison for a later run.
    let _ = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{{{}}}\n", body.join(","))));
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_reported_against_the_stored_run() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-exact-{}", std::process::id()));
        let counts = vec![
            ("wal.appends".to_string(), 10),
            ("scan.rows".to_string(), 7),
        ];
        assert!(compare_and_store(&dir, "k", &counts).is_empty());
        assert!(compare_and_store(&dir, "k", &counts).is_empty());
        let changed = vec![
            ("wal.appends".to_string(), 11),
            ("scan.rows".to_string(), 7),
        ];
        let drift = compare_and_store(&dir, "k", &changed);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("wal.appends"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
