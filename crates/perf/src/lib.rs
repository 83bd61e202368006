//! # perf — the deterministic parallel run harness
//!
//! The paper's evaluation is an embarrassingly parallel grid: benchmark ×
//! variant × task-count cells for Figures 7–12 and the tables, plus seeded
//! fault campaigns. Every cell builds its own system, tracer, and metrics
//! registry, so cells share nothing and can run on any thread. This crate
//! provides the one primitive everything fans out through:
//! [`parallel_map`] — a hand-rolled scoped-thread worker pool
//! (`std::thread::scope`; the build environment has no crates.io access,
//! so no rayon).
//!
//! ## Determinism contract
//!
//! Workers pull cell *indices* from a shared atomic counter, compute
//! `f(index)` with worker-local state only, and tag each result with its
//! index. The coordinator reassembles results **in index order**, so the
//! output `Vec` is identical for any thread count — including 1 — and any
//! interleaving. Figures, reports, and campaign JSON built from the merged
//! results are therefore byte-identical to the sequential path.
//!
//! ## Panic policy
//!
//! A panicking worker must not take the harness down with a cascade of
//! poisoned locks or a torn merge. The pool joins every worker, keeps the
//! first panic (lowest worker index, for determinism), and returns it as
//! a single clean [`WorkerPanic`] error that still carries the original
//! payload for [`WorkerPanic::resume`].
//!
//! ```
//! let squares = perf::parallel_map(4, 10, |i| i * i).unwrap();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker count ([`auto_threads`]).
pub const THREADS_ENV: &str = "CAPCHERI_THREADS";

/// The worker count to use when the user didn't pick one: the
/// `CAPCHERI_THREADS` environment variable if set to a positive integer,
/// else the machine's available parallelism, else 1.
#[must_use]
pub fn auto_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    host_threads()
}

/// Host threads actually available to this process (at least 1).
#[must_use]
pub fn host_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A worker thread panicked while computing a cell.
///
/// The pool converts the panic into this single error instead of letting
/// `thread::scope` re-raise it mid-merge: the coordinator stays intact,
/// no lock is poisoned, and the caller decides whether to surface the
/// error or [`resume`](WorkerPanic::resume) the unwind.
pub struct WorkerPanic {
    /// Index of the panicking worker thread (0-based).
    pub worker: u32,
    /// The panic message, when the payload was a string; otherwise a
    /// placeholder.
    pub message: String,
    payload: Box<dyn Any + Send + 'static>,
}

impl WorkerPanic {
    fn from_payload(worker: u32, payload: Box<dyn Any + Send + 'static>) -> WorkerPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        WorkerPanic {
            worker,
            message,
            payload,
        }
    }

    /// Re-raises the original panic on the current thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPanic")
            .field("worker", &self.worker)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl Error for WorkerPanic {}

/// Maps `f` over `0..cells` on a pool of `threads` scoped workers and
/// returns the results in index order.
///
/// Equivalent to `(0..cells).map(f).collect()` for any `threads ≥ 1` —
/// the merge order is the index order, never the completion order. `f`
/// must be `Sync` because every worker calls it; all per-cell mutable
/// state belongs inside `f`.
///
/// # Errors
///
/// If a worker panics, the first panic (by worker index) is returned as a
/// [`WorkerPanic`]; the remaining workers are still joined first.
pub fn parallel_map<T, F>(threads: usize, cells: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    /// One worker's take: its `(index, result)` pairs, or its panic payload.
    type WorkerOutcome<T> = Result<Vec<(usize, T)>, Box<dyn Any + Send>>;

    // Oversubscribing the host cannot help here: cells share nothing, so
    // workers beyond the available cores only add context switching and
    // keep more per-cell working sets resident at once. The merge is
    // index-ordered, so the output is byte-identical for any worker
    // count and the clamp is invisible except in wall time.
    let workers = threads.max(1).min(cells.max(1)).min(host_threads());
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;

    let joined: Vec<WorkerOutcome<T>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(thread::ScopedJoinHandle::join)
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..cells).map(|_| None).collect();
    let mut first_panic: Option<WorkerPanic> = None;
    for (worker, outcome) in joined.into_iter().enumerate() {
        match outcome {
            Ok(results) => {
                for (i, value) in results {
                    slots[i] = Some(value);
                }
            }
            Err(payload) => {
                if first_panic.is_none() {
                    #[allow(clippy::cast_possible_truncation)]
                    let worker = worker as u32;
                    first_panic = Some(WorkerPanic::from_payload(worker, payload));
                }
            }
        }
    }

    if let Some(panic) = first_panic {
        return Err(panic);
    }

    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every cell index was claimed by exactly one worker"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_any_thread_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let got = parallel_map(threads, 37, |i| i * 3 + 1).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(4, 0, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(parallel_map(8, 1, |i| i + 10).unwrap(), vec![10]);
        assert_eq!(parallel_map(1, 3, |i| i).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_is_one_clean_error() {
        let err = parallel_map(4, 16, |i| {
            assert!(i != 7, "cell seven exploded");
            i
        })
        .unwrap_err();
        assert!(err.message.contains("cell seven exploded"), "{err}");
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn resume_rethrows_the_original_payload() {
        let err = parallel_map(2, 2, |i| {
            assert!(i != 1, "original payload");
            i
        })
        .unwrap_err();
        let rethrown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || err.resume()))
            .unwrap_err();
        let msg = rethrown.downcast_ref::<&str>().map_or_else(
            || {
                rethrown
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            },
            |s| (*s).to_string(),
        );
        assert!(msg.contains("original payload"), "{msg}");
    }

    #[test]
    fn auto_threads_is_at_least_one() {
        assert!(auto_threads() >= 1);
        assert!(host_threads() >= 1);
    }

    #[test]
    fn zero_threads_clamp_to_one_worker() {
        assert_eq!(parallel_map(0, 4, |i| i + 1).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parallel_map(0, 0, |i| i).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items_visits_each_index_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let got = parallel_map(32, 3, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        })
        .unwrap();
        assert_eq!(got, vec![0, 2, 4]);
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "cell {i} recomputed");
        }
    }

    /// The worker claiming the final index has already banked every
    /// earlier result; its panic must still discard the whole map and
    /// surface the original (non-string) payload intact through
    /// [`WorkerPanic::resume`].
    #[test]
    fn panic_on_the_last_index_carries_the_original_payload() {
        #[derive(Debug, PartialEq)]
        struct CellBlew(usize);

        let cells = 9;
        let err = parallel_map(4, cells, |i| {
            if i == cells - 1 {
                std::panic::panic_any(CellBlew(i));
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "<non-string panic payload>");
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || err.resume()))
            .unwrap_err();
        let blew = payload
            .downcast::<CellBlew>()
            .expect("resume re-raises the exact payload the worker threw");
        assert_eq!(*blew, CellBlew(cells - 1));
    }
}
