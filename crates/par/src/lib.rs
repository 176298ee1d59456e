//! Minimal data-parallel utilities over a **persistent worker-pool
//! runtime**.
//!
//! The mixing-time measurements in this workspace are embarrassingly
//! parallel over *sources* (each initial distribution evolves
//! independently) and over *rows* (each node's slice of a sparse
//! matrix-vector product is independent) — but they are also
//! *iterated*: a single SLEM estimate applies the walk operator
//! hundreds to thousands of times. Spawning threads per application
//! (the original design) pays a spawn/join round per apply, which
//! dwarfs the matvec itself on small and mid-size graphs. This crate
//! therefore keeps one process-wide set of workers:
//!
//! - Workers are spawned **lazily** on the first parallel dispatch
//!   (a [`Pool::serial`] pool never spawns anything) and **park**
//!   between jobs.
//! - Dispatching a job resets a recycled job header, pushes it on a
//!   queue, and wakes the workers — sub-microsecond, and
//!   allocation-free in steady state.
//! - The dispatching thread participates as worker #0, so tiny jobs
//!   complete inline while the workers are still waking.
//! - The worker set grows on demand (a pool asking for more threads
//!   than ever seen spawns the difference) and lives for the process.
//!
//! The offline dependency set does not include `rayon`, so this crate
//! provides the small subset we need:
//!
//! - [`par_map_indexed`] — map a function over `0..n` into a `Vec`,
//! - [`par_for_each_chunk`] — process disjoint index ranges in parallel,
//! - [`par_reduce_indexed`] — map over `0..n` and fold the results,
//! - [`Pool`] — a reusable handle carrying the thread count.
//!
//! Scheduling is dynamic: workers pull fixed-size chunks of the index
//! space from a shared atomic cursor, so skewed workloads (e.g. sources
//! that mix at very different speeds) still balance. Chunk geometry
//! depends only on `(n, threads)`, never on worker wake order — and
//! since chunks own disjoint output ranges, every result in this crate
//! is **bit-for-bit identical** across runs.
//!
//! # Example
//!
//! ```
//! let squares = socmix_par::par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

// Every pointer dereference inside an unsafe fn must carry its own
// unsafe block (and SAFETY comment) instead of riding the signature.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dag;
mod pool;
mod runtime;
mod scheduler;

pub use dag::{run_dag, DagError};
pub use pool::Pool;
pub use scheduler::{par_for_each_chunk, par_map_indexed, par_reduce_indexed, ChunkPlan};

/// Returns the number of worker threads used by the free functions.
///
/// Defaults to [`std::thread::available_parallelism`], clamped to at least
/// 1, and can be overridden with the `SOCMIX_THREADS` environment
/// variable (useful for reproducible benchmarking). With
/// `SOCMIX_THREADS=1` every default pool runs inline and the runtime
/// never spawns a worker. An invalid override (`0`, non-numeric) is
/// ignored with a once-per-process warning through `socmix-obs`.
pub fn num_threads() -> usize {
    threads_from_env(std::env::var("SOCMIX_THREADS").ok().as_deref())
}

/// Resolves a raw `SOCMIX_THREADS` value (`None` = unset) to a thread
/// count. Split from [`num_threads`] so the rejection path is testable
/// without mutating the process environment (which is unsafe under the
/// parallel test harness).
fn threads_from_env(raw: Option<&str>) -> usize {
    if let Some(v) = raw {
        match parse_threads(v) {
            Some(n) => return n,
            None => socmix_obs::warn_once!(
                "par",
                "ignoring invalid SOCMIX_THREADS={v:?}: expected a positive integer, \
                 falling back to available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A valid `SOCMIX_THREADS` value is a positive integer.
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn env_override_is_respected() {
        // Can't mutate the environment safely in parallel tests; just
        // check the parse path through a pool constructed explicitly.
        let pool = Pool::with_threads(3);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn threads_parse_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None);
    }

    #[test]
    fn invalid_threads_override_warns_and_falls_back() {
        let fallback = threads_from_env(None);
        // the warning must fire regardless of the ambient SOCMIX_LOG
        socmix_obs::set_log_level(socmix_obs::Level::Warn);
        let _ = socmix_obs::take_recent_events();
        // both invalid shapes fall back; the warning fires once per
        // process (warn_once), so assert on the pair together
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("abc")), fallback);
        let events = socmix_obs::take_recent_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.contains("invalid SOCMIX_THREADS"))
                .count(),
            1,
            "expected exactly one warning, got {events:?}"
        );
        // a valid override still short-circuits
        assert_eq!(threads_from_env(Some("3")), 3);
    }
}
