//! Dynamic chunked scheduling over an index space.
//!
//! Both entry points cut `0..n` into the same [`ChunkPlan`] and hand
//! chunks out from an atomic cursor on the persistent runtime
//! (`crate::runtime`): workers spawned once, parked between jobs.

/// How an index space `0..n` is cut into work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    /// Total number of indices.
    pub(crate) n: usize,
    /// Indices per work unit.
    pub(crate) chunk: usize,
}

impl ChunkPlan {
    /// Plans chunks for `n` items across `threads` workers.
    ///
    /// Aims for ~4 chunks per worker so dynamic scheduling can balance
    /// skew, with a minimum chunk of 1.
    pub(crate) fn new(n: usize, threads: usize) -> Self {
        let target_units = threads.max(1) * 4;
        let chunk = n.div_ceil(target_units).max(1);
        ChunkPlan { n, chunk }
    }

    /// Number of work units in the plan.
    pub(crate) fn units(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.n.div_ceil(self.chunk)
        }
    }

    /// The half-open index range of unit `u`.
    pub(crate) fn range(&self, u: usize) -> std::ops::Range<usize> {
        let lo = u * self.chunk;
        let hi = (lo + self.chunk).min(self.n);
        lo..hi
    }
}

/// Runs `body` over disjoint chunks of the rows of `out` on `threads`
/// threads via the persistent worker pool.
///
/// `out` holds `out.len() / stride` rows of `stride` elements each,
/// planned by [`ChunkPlan::new`]`(rows, threads)`. Each body call
/// receives the half-open row range it owns and the `&mut` sub-slice
/// holding exactly those rows (`range.len() * stride` elements), so a
/// chunk can write its output without a lock and without aliasing
/// another chunk's rows. Chunks are claimed dynamically from a shared
/// cursor, so uneven chunk costs still balance. With `threads == 1`
/// (or few enough rows to fit one chunk) the body runs on the calling
/// thread with no pool interaction at all.
///
/// # Panics
///
/// Panics if `stride` is 0 or does not divide `out.len()`.
pub(crate) fn par_for_each_chunk<T, F>(out: &mut [T], stride: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    assert!(
        stride > 0 && out.len().is_multiple_of(stride),
        "output length {} is not a whole number of rows of stride {stride}",
        out.len()
    );
    let rows = out.len() / stride;
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    let body = &body;
    crate::runtime::run(
        ChunkPlan::new(rows, threads),
        threads,
        &move |range: std::ops::Range<usize>| {
            // SAFETY: the plan's chunks are disjoint half-open ranges
            // of 0..rows and each is claimed by exactly one body call,
            // so the element ranges `start * stride..end * stride` never
            // overlap and no two live `&mut` sub-slices alias; they lie
            // inside `out`, whose exclusive borrow outlives the
            // dispatch (`run` returns only after every body call has).
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(
                    base.0.add(range.start * stride),
                    range.len() * stride,
                )
            };
            body(range, chunk);
        },
    );
}

/// Raw-pointer wrapper so disjoint chunks can write one output buffer
/// without a lock.
struct SendPtr<T>(*mut T);
// SAFETY: `par_for_each_chunk` turns the pointer into one `&mut`
// sub-slice per chunk, and the planner hands out disjoint row ranges,
// so no element is ever aliased across threads; `T: Send` lets the
// written values change threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper shares only the pointer value; all
// writes stay range-disjoint per the Send argument above, so shared
// references never yield overlapping `&mut T`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps `f` over `0..n` on `threads` threads and collects the results
/// in index order.
pub(crate) fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    par_for_each_chunk(&mut out, 1, threads, |range, slots| {
        for (slot, i) in slots.iter_mut().zip(range) {
            *slot = f(i);
        }
    });
    out
}

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
        let par = map_indexed(1000, 4, |i| (i as u64) * 3 + 1);
        let ser: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn map_zero_len() {
        let v: Vec<u32> = map_indexed(0, 4, |_| 7);
        assert!(v.is_empty());
    }

    #[test]
    fn map_single_thread_path() {
        let v = map_indexed(17, 1, |i| i + 1);
        assert_eq!(v, (1..=17).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_chunk_disjoint_writes() {
        // every row is handed out exactly once, as the rows of its own
        // chunk's sub-slice, whatever the stride, row count and width
        for threads in [1usize, 2, 8] {
            for stride in [1usize, 3] {
                for rows in [0usize, 1, 7, 33, 513] {
                    let mut out = vec![0u32; rows * stride];
                    par_for_each_chunk(&mut out, stride, threads, |range, chunk| {
                        assert_eq!(chunk.len(), range.len() * stride);
                        for (row, i) in chunk.chunks_exact_mut(stride).zip(range) {
                            for (c, v) in row.iter_mut().enumerate() {
                                *v += (i * stride + c) as u32 + 1;
                            }
                        }
                    });
                    let want: Vec<u32> = (1..=rows * stride).map(|v| v as u32).collect();
                    assert_eq!(out, want, "threads {threads}, stride {stride}, rows {rows}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number of rows")]
    fn for_each_chunk_rejects_a_partial_row() {
        let mut out = vec![0.0f64; 10];
        par_for_each_chunk(&mut out, 3, 2, |_, _| {});
    }
}
