//! Deterministic parallel executor for independent experiment runs.
//!
//! Sweep cells — one `(policy, ratio)` simulation each — share no
//! mutable state, so they can run on any number of OS threads without
//! changing a single reported value. This module provides the one
//! primitive the sweep drivers need: fan a list of independent jobs
//! over a worker pool and hand the results back **in job order**.
//!
//! # Job model
//!
//! [`run_indexed`] takes a job count `n` and a function `f(i)` for
//! `i in 0..n`. Workers pull the next unclaimed index from a shared
//! atomic counter (work-stealing by index, no channels, no job
//! structs), write the result into slot `i` of a pre-sized output
//! vector, and exit when the counter passes `n`. Because every job's
//! inputs are immutable (`Arc`-shared workloads, cloned configs) and
//! results are merged by index rather than completion order, the
//! output is **bit-identical** to the serial loop regardless of worker
//! count or OS scheduling.
//!
//! # Choosing the worker count
//!
//! [`jobs_from_env`] resolves the pool size: the `PACT_JOBS`
//! environment variable when set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. `PACT_JOBS=1` recovers the
//! exact serial execution path (no threads are spawned at all).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use crate::env::JOBS_ENV;

/// Resolves the worker count: `PACT_JOBS` if set to a positive
/// integer, else the machine's available parallelism, else 1. The
/// environment read itself lives in [`crate::env`], the `PACT_*`
/// registry. An invalid value warns and falls back to the default —
/// binaries reject it eagerly at startup (see
/// [`crate::validate_fault_env`]).
pub fn jobs_from_env() -> usize {
    match crate::env::jobs_override() {
        Ok(Some(n)) => n,
        Ok(None) => default_jobs(),
        Err(e) => {
            eprintln!("warning: ignoring {e}");
            default_jobs()
        }
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs jobs `0..n` on up to `jobs` worker threads and returns the
/// results ordered by job index.
///
/// With `jobs <= 1` (or `n <= 1`) the jobs run inline on the calling
/// thread — the exact serial path, no threads spawned. Otherwise
/// `min(jobs, n)` scoped threads pull indices from a shared counter;
/// slot `i` of the returned vector always holds `f(i)`, so the output
/// is independent of scheduling.
///
/// Panics in `f` propagate to the caller once all workers have
/// stopped.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let workers = jobs.min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slot_ptr = SlotPtr(slots.as_mut_ptr());
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            let slot_ptr = &slot_ptr;
            handles.push(s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                // SAFETY: each index in 0..n is handed out exactly once
                // by the atomic counter, so no two threads ever write
                // the same slot, and the vector outlives the scope.
                unsafe { slot_ptr.0.add(i).write(Some(value)) };
            }));
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "the atomic counter hands out each index in 0..n exactly once and every \
                  worker joined cleanly above, so each slot was written"
    )]
    slots
        .into_iter()
        .map(|s| s.expect("every job index was claimed and completed"))
        .collect()
}

/// [`run_indexed`] for fallible jobs: returns the first `Err` in job
/// (not completion) order, or all results in job order.
///
/// All jobs still run to completion — a failure does not cancel
/// in-flight work — so a retried invocation observes the same
/// deterministic schedule. The deterministic error choice matters for
/// reproducibility: which cell *reports* the failure never depends on
/// thread timing.
pub fn try_run_indexed<T, E, F>(n: usize, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    run_indexed(n, jobs, f).into_iter().collect()
}

/// Raw-pointer wrapper so the slot base address can cross the thread
/// boundary; soundness is argued at the single write site.
struct SlotPtr<T>(*mut Option<T>);
unsafe impl<T: Send> Sync for SlotPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_runs_inline() {
        let out = run_indexed(5, 1, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_results_are_index_ordered() {
        // Jobs finish out of order (later indices sleep less), but the
        // merged output must still be in index order.
        let out = run_indexed(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 50) as u64));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(run_indexed(33, 1, f), run_indexed(33, 8, f));
    }

    #[test]
    fn empty_and_single_job() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(run_indexed(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_indexed(8, 4, |i| {
                if i == 3 {
                    panic!("job 3 failed");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn try_run_indexed_returns_first_error_by_index() {
        let f = |i: usize| if i % 3 == 2 { Err(i) } else { Ok(i * 2) };
        // Jobs 2, 5, 8, 11 fail; index order pins the reported error
        // to 2 regardless of worker scheduling.
        assert_eq!(try_run_indexed(12, 4, f), Err(2));
        assert_eq!(try_run_indexed(12, 1, f), Err(2));
        let ok = |i: usize| Ok::<usize, ()>(i + 1);
        assert_eq!(try_run_indexed(4, 2, ok), Ok(vec![1, 2, 3, 4]));
    }

    #[test]
    fn jobs_env_parsing() {
        // Can't mutate the environment safely under the parallel test
        // harness; exercise the default path only.
        assert!(default_jobs() >= 1);
    }
}
