//! A reusable parallelism handle over the persistent runtime.

use crate::scheduler;
use socmix_obs::{Histogram, Span};

/// Wall time of whole pool operations (one record per `map_indexed` /
/// `for_each_chunk` call). On a trace timeline these spans sit between
/// a pipeline stage and the runtime's per-dispatch spans, naming which
/// flavor of parallel op the stage spent its time in.
static POOL_MAP_NS: Histogram = Histogram::new("pool.map_ns");
static POOL_CHUNKS_NS: Histogram = Histogram::new("pool.for_each_chunk_ns");

/// A reusable parallelism configuration.
///
/// A `Pool` names a degree of parallelism; the actual worker threads
/// live in a process-wide runtime that is spawned lazily on the first
/// parallel dispatch and reused by every pool thereafter (see the
/// crate docs for the lifecycle). `Pool` is
/// therefore still `Copy` — cloning or dropping one never spawns or
/// stops a thread — and exists so callers can thread an explicit
/// degree of parallelism through an experiment instead of re-reading
/// the environment at every call site.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool using the global default thread count ([`crate::num_threads`]).
    pub fn new() -> Self {
        Pool {
            threads: crate::num_threads(),
        }
    }

    /// A pool with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool that always runs on the calling thread. Never touches
    /// the runtime: no threads are spawned, woken, or waited on.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// The number of worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n` in index order using this pool.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        let _span = Span::start(&POOL_MAP_NS);
        scheduler::map_indexed(n, self.threads, f)
    }

    /// Runs `body` over disjoint chunks of the rows of `out` (rows of
    /// `stride` elements) using this pool; each call gets its row
    /// range and the `&mut` sub-slice holding exactly those rows, so a
    /// chunk writes its output without a lock and without aliasing
    /// another chunk's rows. Chunks are claimed dynamically, so uneven
    /// chunk costs still balance; a serial pool (or few enough rows to
    /// fit one chunk) runs `body` on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0 or does not divide `out.len()`.
    pub fn for_each_chunk<T, F>(&self, out: &mut [T], stride: usize, body: F)
    where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
    {
        let _span = Span::start(&POOL_CHUNKS_NS);
        scheduler::par_for_each_chunk(out, stride, self.threads, body);
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_has_one_thread() {
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn pool_map_matches_serial_map() {
        let a = Pool::with_threads(4).map_indexed(100, |i| i * 2);
        let b = Pool::serial().map_indexed(100, |i| i * 2);
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Pool::default().threads(), Pool::new().threads());
    }
}
