//! Dynamic chunked scheduling over an index space.
//!
//! All entry points cut `0..n` into the same [`ChunkPlan`] and hand
//! chunks out from an atomic cursor on the persistent runtime
//! (`crate::runtime`): workers spawned once, parked between jobs.

/// How an index space `0..n` is cut into work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Total number of indices.
    pub n: usize,
    /// Indices per work unit.
    pub chunk: usize,
}

impl ChunkPlan {
    /// Plans chunks for `n` items across `threads` workers.
    ///
    /// Aims for ~4 chunks per worker so dynamic scheduling can balance
    /// skew, with a minimum chunk of 1.
    pub fn new(n: usize, threads: usize) -> Self {
        let target_units = threads.max(1) * 4;
        let chunk = n.div_ceil(target_units).max(1);
        ChunkPlan { n, chunk }
    }

    /// Number of work units in the plan.
    pub fn units(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.n.div_ceil(self.chunk)
        }
    }

    /// The half-open index range of unit `u`.
    pub fn range(&self, u: usize) -> std::ops::Range<usize> {
        let lo = u * self.chunk;
        let hi = (lo + self.chunk).min(self.n);
        lo..hi
    }
}

/// Runs `body` over disjoint chunks of `0..n` on `threads` threads via
/// the persistent worker pool.
///
/// `body` receives the half-open range it owns. Chunks are claimed
/// dynamically from a shared cursor, so uneven chunk costs still
/// balance. With `threads == 1` (or `n` small enough to fit one chunk)
/// the body runs on the calling thread with no pool interaction at
/// all.
pub fn par_for_each_chunk<F>(n: usize, threads: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    crate::runtime::run(ChunkPlan::new(n, threads), threads, &body);
}

/// Maps `f` over `0..n` in parallel and collects results in index order.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_with(n, crate::num_threads(), f)
}

/// As [`par_map_indexed`] but with an explicit thread count.
pub fn par_map_indexed_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    {
        // Each chunk owns a disjoint slice of `out`; hand out raw parts
        // through a shared pointer wrapper to avoid a mutex per element.
        let base = SendPtr(out.as_mut_ptr());
        let base = &base;
        let f = &f;
        crate::runtime::run(
            ChunkPlan::new(n, threads),
            threads,
            &move |range: std::ops::Range<usize>| {
                for i in range {
                    // SAFETY: chunks are disjoint half-open ranges of
                    // 0..n, so each `i` is written by exactly one
                    // worker, and `out` outlives the dispatch.
                    unsafe {
                        *base.0.add(i) = f(i);
                    }
                }
            },
        );
    }
    out
}

/// Maps `f` over `0..n` in parallel and folds the results with `fold`.
///
/// `fold` must be associative with `identity` as its unit. Each chunk
/// folds its indices in ascending order into a per-chunk partial slot
/// (no locks), and the partials are folded in chunk-index order — so
/// for a fixed thread count the result is deterministic, including for
/// non-commutative or floating-point folds. Across *different* thread
/// counts the chunk geometry (and hence the association order) can
/// differ.
pub fn par_reduce_indexed<T, F, R>(n: usize, identity: T, f: F, fold: R) -> T
where
    T: Send + Sync + Clone,
    F: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    par_reduce_indexed_with(n, crate::num_threads(), identity, f, fold)
}

/// As [`par_reduce_indexed`] but with an explicit thread count.
///
/// Partials live in one slot per chunk — workers never contend on a
/// lock (the old implementation pushed partials through a
/// `Mutex<Vec<T>>`, serializing every chunk completion).
pub(crate) fn par_reduce_indexed_with<T, F, R>(
    n: usize,
    threads: usize,
    identity: T,
    f: F,
    fold: R,
) -> T
where
    T: Send + Sync + Clone,
    F: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    let plan = ChunkPlan::new(n, threads);
    let units = plan.units();
    if units == 0 {
        return identity;
    }
    let mut slots: Vec<Option<T>> = vec![None; units];
    {
        let base = SendPtr(slots.as_mut_ptr());
        let base = &base;
        let f = &f;
        let fold = &fold;
        let identity = &identity;
        let chunk = plan.chunk;
        crate::runtime::run(plan, threads, &move |range: std::ops::Range<usize>| {
            let u = range.start / chunk;
            let mut acc = identity.clone();
            for i in range {
                acc = fold(acc, f(i));
            }
            // SAFETY: chunk `u` is claimed by exactly one worker,
            // so slot `u` has exactly one writer, and `slots`
            // outlives the dispatch.
            unsafe {
                *base.0.add(u) = Some(acc);
            }
        });
    }
    slots.into_iter().flatten().fold(identity, fold)
}

/// Raw-pointer wrapper so disjoint chunks can write one output buffer
/// without a lock.
struct SendPtr<T>(*mut T);
// SAFETY: every chunk body writes only `ptr.add(i)` for `i` inside
// its own half-open range, and the planner hands out disjoint ranges,
// so no element is ever aliased across threads; `T: Send` lets the
// written values change threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper shares only the pointer value; all
// writes stay range-disjoint per the Send argument above, so shared
// references never yield overlapping `&mut T`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plan_covers_everything_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 8] {
                let plan = ChunkPlan::new(n, threads);
                let mut seen = vec![false; n];
                for u in 0..plan.units() {
                    for i in plan.range(u) {
                        assert!(!seen[i], "index {i} covered twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_plan_empty() {
        let plan = ChunkPlan::new(0, 4);
        assert_eq!(plan.units(), 0);
    }

    #[test]
    fn map_matches_serial() {
        let par = par_map_indexed(1000, |i| (i as u64) * 3 + 1);
        let ser: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn map_zero_len() {
        let v: Vec<u32> = par_map_indexed(0, |_| 7);
        assert!(v.is_empty());
    }

    #[test]
    fn map_single_thread_path() {
        let v = par_map_indexed_with(17, 1, |i| i + 1);
        assert_eq!(v, (1..=17).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_sums() {
        let s = par_reduce_indexed(10_000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 10_000 * 9_999 / 2);
    }

    #[test]
    fn reduce_max() {
        let m = par_reduce_indexed(257, usize::MIN, |i| (i * 31) % 257, |a, b| a.max(b));
        assert_eq!(m, 256);
    }

    #[test]
    fn reduce_is_repeatable_for_floats() {
        // per-chunk slots folded in chunk order: the float association
        // is fixed for a given thread count, so reruns agree exactly
        let run =
            || par_reduce_indexed_with(5_000, 4, 0.0f64, |i| 1.0 / (i + 1) as f64, |a, b| a + b);
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn for_each_chunk_disjoint_writes() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..513).map(|_| AtomicU32::new(0)).collect();
        par_for_each_chunk(513, 4, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
