//! Answer verification: order-insensitive result fingerprints and the
//! expected answers `Engine::Baseline` computes in process.

use nra::storage::{Relation, Value};
use nra::{Database, Engine, NraError, QueryOptions};

/// A result's row count plus a wrapping sum of per-row hashes over the
/// wire text of every field (`Value`'s `Display`, exactly what the
/// server sends), so row order does not matter but multiplicity does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

impl Fingerprint {
    pub fn of_text_rows(rows: &[Vec<String>]) -> Fingerprint {
        Fingerprint {
            rows: rows.len(),
            hash: rows
                .iter()
                .map(|r| row_hash(r.iter().map(String::as_str)))
                .fold(0, u64::wrapping_add),
        }
    }

    pub fn of_values<R: AsRef<[Value]>>(rows: &[R]) -> Fingerprint {
        Fingerprint::of_text_rows(&text_rows(rows))
    }

    pub fn of_relation(rel: &Relation) -> Fingerprint {
        Fingerprint::of_values(rel.rows())
    }
}

/// Rows rendered the way the wire protocol renders them.
pub fn text_rows<R: AsRef<[Value]>>(rows: &[R]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.as_ref().iter().map(Value::to_string).collect())
        .collect()
}

/// FNV-1a over the fields, with a unit separator between them.
fn row_hash<'a>(fields: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for field in fields {
        for b in field.bytes().chain(std::iter::once(0x1f)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The answer `Engine::Baseline` gives for `sql`. The plan cache is
/// bypassed so computing expectations leaves its counters untouched.
pub fn baseline(db: &Database, sql: &str) -> Result<Relation, NraError> {
    let opts = QueryOptions::new()
        .engine(Engine::Baseline)
        .plan_cache(false);
    Ok(db.execute(sql, &opts)?.rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_but_not_multiplicity() {
        let a = vec![
            vec!["1".to_string(), "x".into()],
            vec!["2".into(), "y".into()],
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(Fingerprint::of_text_rows(&a), Fingerprint::of_text_rows(&b));
        let dup = vec![a[0].clone(), a[0].clone()];
        assert_ne!(
            Fingerprint::of_text_rows(&a),
            Fingerprint::of_text_rows(&dup)
        );
        // Field boundaries matter: ("1","2x") differs from ("12","x").
        let shifted = vec![vec!["12".to_string(), "x".into()]];
        let orig = vec![vec!["1".to_string(), "2x".into()]];
        assert_ne!(
            Fingerprint::of_text_rows(&shifted),
            Fingerprint::of_text_rows(&orig)
        );
    }

    #[test]
    fn values_hash_as_their_wire_text() {
        let rows = vec![vec![Value::Int(7), Value::Decimal(1234), Value::str("a'b")]];
        let text = vec![vec!["7".to_string(), "12.34".into(), "'a''b'".into()]];
        assert_eq!(
            Fingerprint::of_values(&rows),
            Fingerprint::of_text_rows(&text)
        );
    }
}
