//! Morsel-style partition scheduler for the nested-relational pipeline.
//!
//! The paper's operators are built from hash-partitionable primitives —
//! outer hash joins on correlation predicates, `nest` grouped by the same
//! outer keys, and per-tuple linking/pseudo-selections — so each of them
//! decomposes into independent units of work. This module provides the
//! shared machinery those operators use to run the units on worker
//! threads while keeping the output **byte-identical** to the sequential
//! engine:
//!
//! * a thread-local worker budget ([`threads`]), settable per query
//!   ([`set_threads`], driven by `QueryOptions::threads`) with an
//!   `NRA_THREADS` environment fallback;
//! * a morsel-size floor ([`partitions`]) so tiny inputs never pay the
//!   spawn cost;
//! * [`run_partitioned`] — scoped fork/join (`std::thread::scope`, no
//!   external dependencies) that returns worker results *in partition
//!   order*, merges worker-side [`nra_obs`] collections back into the
//!   coordinating thread deterministically, carries the installed
//!   [`crate::governor`] onto every worker, and **contains worker
//!   panics**: a panic anywhere inside a partition closure surfaces as
//!   [`EngineError::WorkerPanicked`] after all sibling partitions have
//!   drained, never as a process abort;
//! * [`chunks`] — contiguous input splitting, so concatenating worker
//!   outputs in partition order reproduces the sequential scan order;
//! * [`sort_rows_by`] — a stable parallel merge sort whose output equals
//!   `slice::sort_by` exactly (stable-sort output is unique).
//!
//! Determinism argument: every parallel operator in this engine follows
//! one of two shapes. Either it chunks a scan whose per-tuple results are
//! independent and concatenates the chunk outputs in partition order
//! (linking selections, join probes), or it hash-partitions on a grouping
//! key so that all tuples of one group land in one partition and the
//! groups are re-emitted in a globally defined order (hash-join builds,
//! hash nest). Both shapes reproduce the sequential output order, not
//! just the same multiset. Errors are deterministic too: when several
//! partitions fail, the error of the lowest-numbered partition is the
//! one reported (first-error-wins in partition order, not in completion
//! order).

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;

use crate::error::EngineError;
use crate::{config, faultinject, governor};

/// Default minimum rows per worker before an operator partitions.
/// Spawning a scoped thread costs ~10µs; below this floor the sequential
/// path is faster and (more importantly for tests) the committed
/// baselines at small scales keep their sequential shape.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Hard cap on the worker budget (a runaway `NRA_THREADS` should not
/// spawn thousands of threads).
pub const MAX_THREADS: usize = 64;

thread_local! {
    /// Per-thread override of the worker budget (`None` = consult the
    /// configured `NRA_THREADS`).
    static THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-thread morsel floor (tests shrink it to exercise the parallel
    /// paths on small corpora).
    static MORSEL_ROWS: Cell<usize> = const { Cell::new(DEFAULT_MORSEL_ROWS) };
}

/// The worker budget for operators on this thread: the per-query override
/// when set, else the ambient `NRA_THREADS` ([`config::ambient`]), else 1
/// (sequential). Always in `1..=MAX_THREADS`.
pub fn threads() -> usize {
    THREADS
        .with(Cell::get)
        .or(config::ambient().threads)
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// Restores the previous worker budget on drop (see [`set_threads`]).
#[must_use = "dropping the guard immediately restores the previous budget"]
pub struct ThreadsGuard {
    prev: Option<usize>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREADS.with(|t| t.set(self.prev));
    }
}

/// Set (or with `None`, clear) this thread's worker-budget override for
/// the lifetime of the returned guard. Queries install this from
/// `QueryOptions::threads`; clearing falls back to the configured
/// `NRA_THREADS`.
pub fn set_threads(n: Option<usize>) -> ThreadsGuard {
    ThreadsGuard {
        prev: THREADS.with(|t| t.replace(n.map(|n| n.clamp(1, MAX_THREADS)))),
    }
}

/// This thread's raw worker-budget override, if any.
pub fn threads_override() -> Option<usize> {
    THREADS.with(Cell::get)
}

/// The current morsel floor (minimum rows per worker).
pub fn morsel_rows() -> usize {
    MORSEL_ROWS.with(Cell::get)
}

/// Restores the previous morsel floor on drop (see [`set_morsel_rows`]).
#[must_use = "dropping the guard immediately restores the previous floor"]
pub struct MorselGuard {
    prev: usize,
}

impl Drop for MorselGuard {
    fn drop(&mut self) {
        MORSEL_ROWS.with(|m| m.set(self.prev));
    }
}

/// Override the morsel floor for the lifetime of the returned guard.
/// Agreement tests set this to 1 so that even 10-row corpora exercise
/// every parallel code path.
pub fn set_morsel_rows(n: usize) -> MorselGuard {
    MorselGuard {
        prev: MORSEL_ROWS.with(|m| m.replace(n.max(1))),
    }
}

/// How many partitions a scan of `rows` rows should use: bounded by the
/// worker budget and by the morsel floor, never zero. With the default
/// budget of 1 this is always 1, which keeps every operator on its
/// original sequential path.
pub fn partitions(rows: usize) -> usize {
    threads().min(rows / morsel_rows().max(1)).max(1)
}

/// Split `0..len` into `parts` contiguous ranges of near-equal size (the
/// first `len % parts` ranges carry one extra element). Concatenating
/// per-range outputs in order reproduces a sequential scan of `0..len`.
pub fn chunks(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let (base, extra) = (len / parts, len % parts);
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let hi = lo + base + usize::from(p < extra);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Best-effort rendering of a panic payload for
/// [`EngineError::WorkerPanicked`] messages (`panic!` payloads are
/// `&str` or `String` in practice).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into a structured
/// [`EngineError::WorkerPanicked`] instead of unwinding further. Used
/// around every partition closure (including partition 0, which runs
/// inline on the coordinator) so a panicking operator can never abort
/// the process or poison the scheduler.
fn contain<T>(site: &str, f: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(EngineError::WorkerPanicked {
            site: site.to_string(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Run `f(p)` for every partition `p in 0..parts` and return the results
/// in partition order.
///
/// Partition 0 runs inline on the calling thread (its observability spans
/// reach the parent collector directly); partitions `1..` run on scoped
/// worker threads under an [`nra_obs::Handoff`] plus the calling thread's
/// [`crate::governor`], and their collected profiles are absorbed into
/// the parent collector *in partition order* after the join — so merged
/// counters are deterministic regardless of how the OS schedules the
/// workers. With `parts == 1` this degenerates to a plain call with zero
/// thread overhead.
///
/// Failure semantics: a cancelled query fails at dispatch (before any
/// spawn); a partition that returns `Err` or panics does not interrupt
/// its siblings — every partition runs to completion (remaining morsels
/// drain, worker collectors unwind cleanly) and the error of the
/// lowest-numbered failing partition is returned.
pub fn run_partitioned<T, F>(parts: usize, f: F) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize) -> Result<T, EngineError> + Sync,
{
    governor::checkpoint("partition-dispatch")?;
    faultinject::hit(faultinject::PARTITION_MERGE)?;
    if parts <= 1 {
        return Ok(vec![contain("partition-0", || f(0))?]);
    }
    let handoff = nra_obs::Handoff::capture();
    let gov = governor::current();
    let batch_rows = crate::vec::batch_rows_override();
    let mut results: Vec<Result<T, EngineError>> = Vec::with_capacity(parts);
    let mut profiles: Vec<Option<nra_obs::Profile>> = Vec::with_capacity(parts - 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..parts)
            .map(|p| {
                let handoff = &handoff;
                let gov = gov.clone();
                let f = &f;
                s.spawn(move || {
                    let _gov = governor::install(gov);
                    let _bsz = crate::vec::set_batch_rows(batch_rows);
                    // Contain inside the handoff so the worker's
                    // collector is torn down normally even on panic.
                    handoff.run(|| {
                        contain("worker", || {
                            governor::checkpoint("worker-start")?;
                            f(p)
                        })
                    })
                })
            })
            .collect();
        results.push(contain("partition-0", || f(0)));
        for handle in handles {
            match handle.join() {
                Ok((out, profile)) => {
                    results.push(out);
                    profiles.push(profile);
                }
                // `contain` already catches panics inside the closure;
                // this arm only fires if unwinding escaped it (e.g. a
                // panic in the handoff teardown itself).
                Err(payload) => {
                    results.push(Err(EngineError::WorkerPanicked {
                        site: "worker".to_string(),
                        message: panic_message(payload.as_ref()),
                    }));
                    profiles.push(None);
                }
            }
        }
    });
    // Worker profiles merge in partition order even when some partition
    // failed: the counters that were collected stay deterministic, and
    // nothing leaks into the next query.
    for profile in profiles.into_iter().flatten() {
        nra_obs::absorb(&profile);
    }
    results.into_iter().collect()
}

/// Stable parallel sort of `rows`, byte-identical to
/// `rows.sort_by(&cmp)`: contiguous chunks are stably sorted on workers,
/// then adjacent sorted runs are merged pairwise with ties always taken
/// from the left (lower-index) run. The composition is a stable sort, and
/// a stable sort's output permutation is unique, so the result equals the
/// sequential one. Falls back to `sort_by` when [`partitions`] says the
/// input is too small.
///
/// Sorting happens on an index vector (workers share `&rows` read-only),
/// and the final permutation moves each row exactly once. The index
/// scratch (two `u32` vectors) is charged to the governor as sort
/// scratch before it is allocated.
pub fn sort_rows_by<T, F>(rows: &mut Vec<T>, cmp: F) -> Result<(), EngineError>
where
    T: Sync + Send + Default,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let parts = partitions(rows.len());
    if parts <= 1 {
        governor::checkpoint("sort")?;
        rows.sort_by(&cmp);
        return Ok(());
    }
    governor::charge("sort", 8 * rows.len() as u64)?;
    let n = rows.len();
    let mut runs = chunks(n, parts);
    let mut src: Vec<u32> = Vec::with_capacity(n);
    let mut dst: Vec<u32> = vec![0; n];
    {
        let view = &rows[..];
        let cmp = &cmp;
        // Phase 1: stable-sort each chunk's indices in parallel. Equal
        // rows keep ascending index order within a chunk.
        let sorted = run_partitioned(parts, |p| {
            let r = runs[p].clone();
            let mut idx: Vec<u32> = (r.start as u32..r.end as u32).collect();
            idx.sort_by(|&a, &b| cmp(&view[a as usize], &view[b as usize]));
            Ok(idx)
        })?;
        for chunk in sorted {
            src.extend_from_slice(&chunk);
        }
        // Phase 2: merge adjacent runs pairwise until one run remains.
        // Each pair writes a disjoint slice of `dst`; ties take the left
        // run, whose indices are the smaller ones — overall stability.
        while runs.len() > 1 {
            governor::checkpoint("sort-merge")?;
            let mut next_runs = Vec::with_capacity(runs.len().div_ceil(2));
            std::thread::scope(|s| {
                let mut dst_rest: &mut [u32] = &mut dst;
                let mut i = 0;
                while i < runs.len() {
                    if i + 1 == runs.len() {
                        // Odd run out: carried over verbatim.
                        let r = runs[i].clone();
                        let (out, rest) = dst_rest.split_at_mut(r.len());
                        dst_rest = rest;
                        out.copy_from_slice(&src[r.clone()]);
                        next_runs.push(r);
                        i += 1;
                        continue;
                    }
                    let (a, b) = (runs[i].clone(), runs[i + 1].clone());
                    let merged = a.start..b.end;
                    let (out, rest) = dst_rest.split_at_mut(merged.len());
                    dst_rest = rest;
                    let src = &src;
                    s.spawn(move || {
                        merge_runs(&src[a], &src[b], out, |&x, &y| {
                            cmp(&view[x as usize], &view[y as usize])
                        })
                    });
                    next_runs.push(merged);
                    i += 2;
                }
            });
            std::mem::swap(&mut src, &mut dst);
            runs = next_runs;
        }
    }
    // Phase 3: apply the permutation. Every index occurs exactly once, so
    // each row is taken out of the old vector exactly once.
    let mut old = std::mem::take(rows);
    rows.extend(src.iter().map(|&i| std::mem::take(&mut old[i as usize])));
    Ok(())
}

/// Stable two-run merge: on ties the left run wins.
fn merge_runs<T: Copy>(a: &[T], b: &[T], out: &mut [T], mut cmp: impl FnMut(&T, &T) -> Ordering) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_left = i < a.len() && (j >= b.len() || cmp(&a[i], &b[j]) != Ordering::Greater);
        if take_left {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Hash a grouping key with the standard library's deterministic
/// `DefaultHasher` (fixed-key SipHash — the same key always lands in the
/// same partition, across runs and across build/probe sides).
pub fn key_hash<K: std::hash::Hash>(key: &K) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Run `f` with a given budget and a morsel floor of 1.
    fn with_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let _t = set_threads(Some(threads));
        let _m = set_morsel_rows(1);
        f()
    }

    #[test]
    fn default_budget_is_sequential() {
        // No override and (in the test environment) no NRA_THREADS: every
        // operator sees exactly one partition.
        if std::env::var("NRA_THREADS").is_err() {
            assert_eq!(threads(), 1);
            assert_eq!(partitions(1 << 20), 1);
        }
    }

    #[test]
    fn morsel_floor_keeps_small_inputs_sequential() {
        let _t = set_threads(Some(8));
        assert_eq!(partitions(DEFAULT_MORSEL_ROWS - 1), 1);
        assert_eq!(partitions(2 * DEFAULT_MORSEL_ROWS), 2);
        assert_eq!(partitions(100 * DEFAULT_MORSEL_ROWS), 8);
    }

    #[test]
    fn chunks_cover_contiguously() {
        for (len, parts) in [(10, 3), (3, 10), (0, 4), (7, 1), (8, 4)] {
            let cs = chunks(len, parts);
            assert_eq!(cs.len(), parts.max(1));
            let mut expect = 0;
            for c in &cs {
                assert_eq!(c.start, expect);
                expect = c.end;
            }
            assert_eq!(expect, len);
        }
    }

    #[test]
    fn run_partitioned_returns_in_partition_order() -> Result<(), EngineError> {
        let out = with_budget(4, || {
            run_partitioned(4, |p| {
                // Make later partitions finish first.
                std::thread::sleep(std::time::Duration::from_millis(4 - p as u64));
                Ok(p * 10)
            })
        })?;
        assert_eq!(out, vec![0, 10, 20, 30]);
        Ok(())
    }

    #[test]
    fn run_partitioned_merges_worker_stats_deterministically() -> Result<(), String> {
        nra_obs::enable();
        with_budget(4, || {
            run_partitioned(4, |p| {
                let mut sp = nra_obs::span(|| "work".to_string());
                sp.rows_out(p + 1);
                Ok(())
            })
        })
        .map_err(|e| e.to_string())?;
        let profile = nra_obs::disable().ok_or("collection was not enabled")?;
        let s = profile.get("work").ok_or("missing `work` entry")?;
        assert_eq!(s.invocations, 4);
        assert_eq!(s.rows_out, 1 + 2 + 3 + 4);
        Ok(())
    }

    #[test]
    fn partition_panics_become_structured_errors() {
        for t in [1usize, 2, 4] {
            let result = with_budget(t, || {
                run_partitioned(t, |p| -> Result<(), EngineError> {
                    if p == t - 1 {
                        panic!("boom in partition {p}");
                    }
                    Ok(())
                })
            });
            match result {
                Err(EngineError::WorkerPanicked { message, .. }) => {
                    assert!(message.contains("boom"), "threads={t}: {message}");
                }
                other => panic!("threads={t}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn first_error_wins_in_partition_order() {
        let result = with_budget(4, || {
            run_partitioned(4, |p| -> Result<(), EngineError> {
                // Lower-numbered partitions fail later in wall time: the
                // reported error must still be partition 0's.
                std::thread::sleep(std::time::Duration::from_millis(p as u64));
                Err(EngineError::Unsupported(format!("p{p}")))
            })
        });
        assert_eq!(result, Err(EngineError::Unsupported("p0".into())));
    }

    #[test]
    fn failing_partition_drains_siblings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = Arc::new(AtomicUsize::new(0));
        let result = with_budget(4, || {
            run_partitioned(4, |p| {
                ran.fetch_add(1, Ordering::SeqCst);
                if p == 0 {
                    Err(EngineError::Unsupported("p0 fails".into()))
                } else {
                    Ok(())
                }
            })
        });
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "all partitions must run");
    }

    #[test]
    fn cancelled_dispatch_refuses_to_spawn() {
        let token = governor::CancelToken::new();
        token.cancel();
        let gov = Arc::new(governor::Governor::new().cancel_token(token));
        let _g = governor::install(Some(gov));
        let result = with_budget(4, || run_partitioned(4, Ok));
        assert!(matches!(result, Err(EngineError::Cancelled { .. })));
    }

    #[test]
    fn workers_inherit_the_governor() {
        use nra_storage::{Tuple, Value};
        // A 2-byte budget must trip charges made from worker threads.
        // Each worker transposes a real batch and charges its actual
        // lane allocation (not a flat per-worker constant) through the
        // batch-amortized path.
        let gov = Arc::new(governor::Governor::new().mem_limit(2));
        let _g = governor::install(Some(gov));
        let result = with_budget(4, || {
            run_partitioned(4, |p| {
                let rows: Vec<Tuple> = (0..64).map(|i| vec![Value::Int((p + i) as i64)]).collect();
                let batch = crate::vec::ValueBatch::with_columns(&rows, 1, &[0]);
                assert!(batch.alloc_bytes() >= 64 * 8, "charges real lane bytes");
                crate::vec::charge_batch("worker-alloc", &batch)?;
                Ok(())
            })
        });
        assert!(matches!(result, Err(EngineError::ResourceExhausted { .. })));
    }

    #[test]
    fn parallel_sort_equals_sequential_stable_sort() -> Result<(), EngineError> {
        // Pairs sorted by the first component only: the second component
        // witnesses stability.
        let mut rng = 0x2545_F491u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [0usize, 1, 2, 7, 100, 1000, 4097] {
            let data: Vec<(u64, usize)> = (0..len).map(|i| (next() % 17, i)).collect();
            let mut expect = data.clone();
            expect.sort_by_key(|a| a.0);
            for t in [2, 3, 4] {
                let mut got = data.clone();
                with_budget(t, || sort_rows_by(&mut got, |a, b| a.0.cmp(&b.0)))?;
                assert_eq!(got, expect, "len={len} threads={t}");
            }
        }
        Ok(())
    }

    #[test]
    fn key_hash_is_stable_across_calls() {
        assert_eq!(key_hash(&42u64), key_hash(&42u64));
        assert_ne!(key_hash(&1u64), key_hash(&2u64));
    }
}
