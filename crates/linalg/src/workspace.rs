//! Reusable per-thread scratch buffers for operator hot paths.
//!
//! Every iterative driver in this workspace (Lanczos, power iteration,
//! CG, the batch evolver) reduces to thousands of repeated
//! `LinearOp::apply` calls. The operators need small amounts of
//! scratch per application — the `z = x/deg` scale vector of
//! [`crate::WalkOp`], the projected input copy of
//! [`crate::DeflatedOp`] — and allocating that scratch per call puts a
//! `malloc`/`free` pair on the hottest path in the codebase.
//!
//! [`with_scratch`] instead checks buffers out of a per-thread pool:
//! the first applications on a thread allocate, every later one
//! reuses, so a whole Lanczos/power/probe run performs **zero heap
//! allocation per operator application** in steady state. Nested
//! checkouts (a [`crate::DeflatedOp`] whose inner operator also needs
//! scratch) receive distinct buffers because checked-out buffers leave
//! the pool.
//!
//! Buffers are keyed by power-of-two *size class*: a checkout only
//! reuses a buffer of its own class or the next one up, so alternating
//! large and small requests each get their own buffer instead of
//! resizing one back and forth, a small request never takes a buffer
//! more than twice its class, and a probe's last, narrower block still
//! reuses the full blocks' buffers. The pool keeps at most
//! [`MAX_POOLED`] buffers per thread, and none larger than
//! [`MAX_POOLED_BYTES`] (a returning buffer past either bound is
//! dropped), which bounds how much memory an idle persistent worker
//! pins. The batch evolver's ping-pong blocks come from this pool too.
//!
//! Thread-local storage is what keeps the operators `Sync`: a shared
//! `&WalkOp` can be applied concurrently from many pool workers (the
//! probe does exactly that) and each worker transparently gets its own
//! scratch. Buffer contents are **unspecified on entry** — callers
//! must fully overwrite what they read, which also keeps results
//! independent of reuse history (the bit-for-bit serial-equivalence
//! contract).

use socmix_obs::{Counter, Gauge};
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Checkouts served from a pooled buffer (the steady state).
static POOL_HITS: Counter = Counter::new("linalg.scratch.hits");
/// Checkouts that had to allocate (cold pool or new size class).
static POOL_MISSES: Counter = Counter::new("linalg.scratch.misses");
/// Bytes currently parked in scratch pools across all threads —
/// falls on checkout, rises on return, so the level is what an idle
/// process pins. Dropped returns (pool full, or a buffer over
/// [`MAX_POOLED_BYTES`]) leave it untouched.
static POOL_BYTES_RETAINED: Gauge = Gauge::new("linalg.scratch.bytes_retained");

/// Most buffers retained per thread; a returning buffer is dropped
/// once the pool is full. Nested checkout depth in this codebase is at
/// most three (the batch evolver's two blocks and its TVD row;
/// `DeflatedOp` over `SymmetricWalkOp` is two), so 8 leaves headroom.
pub const MAX_POOLED: usize = 8;

/// Largest buffer retained, in bytes: a returning buffer with more
/// capacity than this is freed instead of pooled. The batch evolver's
/// two ping-pong blocks then pin at most 64 MiB per thread, so an idle
/// worker does not keep a large probe's blocks (a 400k-node probe's
/// 51 MB blocks are freed, not kept).
pub const MAX_POOLED_BYTES: usize = 32 << 20;

/// Smallest buffer class, so tiny requests don't fragment the pool
/// into many near-empty classes.
const MIN_CLASS: usize = 64;

fn size_class(n: usize) -> usize {
    n.next_power_of_two().max(MIN_CLASS)
}

/// Runs `f` with a scratch buffer of length `n` checked out of the
/// calling thread's buffer pool.
///
/// The buffer's contents are unspecified; `f` must write every entry
/// it later reads. The buffer returns to the pool when `f` returns,
/// unless the pool is full or the buffer is larger than
/// [`MAX_POOLED_BYTES`] (on panic it is simply dropped).
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let class = size_class(n);
    let mut buf = match SCRATCH.with(|s| {
        let mut pool = s.borrow_mut();
        pool.iter()
            .position(|b| b.capacity() >= class && b.capacity() <= class * 2)
            .map(|i| pool.swap_remove(i))
    }) {
        Some(buf) => {
            POOL_HITS.incr();
            POOL_BYTES_RETAINED.add(-((buf.capacity() * 8) as i64));
            buf
        }
        None => {
            POOL_MISSES.incr();
            Vec::with_capacity(class)
        }
    };
    buf.resize(n, 0.0);
    let r = f(&mut buf);
    let bytes = buf.capacity() * 8;
    if bytes <= MAX_POOLED_BYTES {
        SCRATCH.with(|s| {
            let mut pool = s.borrow_mut();
            if pool.len() < MAX_POOLED {
                POOL_BYTES_RETAINED.add(bytes as i64);
                pool.push(buf);
            }
        });
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        with_scratch(17, |b| assert_eq!(b.len(), 17));
        with_scratch(3, |b| assert_eq!(b.len(), 3));
        with_scratch(40, |b| assert_eq!(b.len(), 40));
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        with_scratch(8, |outer| {
            outer.fill(1.0);
            with_scratch(8, |inner| {
                inner.fill(2.0);
            });
            assert!(outer.iter().all(|&v| v == 1.0), "inner must not alias");
        });
    }

    #[test]
    fn zero_length_scratch() {
        with_scratch(0, |b| assert!(b.is_empty()));
    }

    #[test]
    fn buffer_is_reused_not_reallocated() {
        // warm the pool, then confirm a same-size checkout reuses the
        // backing capacity (pointer-stable across checkouts)
        let p1 = with_scratch(64, |b| b.as_ptr() as usize);
        let p2 = with_scratch(64, |b| b.as_ptr() as usize);
        assert_eq!(p1, p2, "steady-state checkout must reuse the buffer");
    }

    #[test]
    fn alternating_sizes_keep_distinct_buffers() {
        // large and small checkouts land in different size classes, so
        // neither resizes the other's buffer back and forth
        let big = with_scratch(100_000, |b| b.as_ptr() as usize);
        let small = with_scratch(100, |b| b.as_ptr() as usize);
        assert_ne!(big, small);
        for _ in 0..4 {
            assert_eq!(with_scratch(100_000, |b| b.as_ptr() as usize), big);
            assert_eq!(with_scratch(100, |b| b.as_ptr() as usize), small);
        }
    }

    #[test]
    fn oversized_buffer_is_dropped_not_pooled() {
        // a returned buffer past the byte cap is freed: the pool gains
        // nothing, while a small buffer returned beside it is kept
        SCRATCH.with(|s| s.borrow_mut().clear());
        let pooled = || SCRATCH.with(|s| s.borrow().len());
        let words = MAX_POOLED_BYTES / 8 + 1;
        with_scratch(words, |b| b[words - 1] = 1.0);
        assert_eq!(pooled(), 0, "an oversized buffer must not be pooled");
        with_scratch(words / 1024, |_| {});
        assert_eq!(pooled(), 1);
    }

    #[test]
    fn pool_retention_is_bounded() {
        // deeper simultaneous nesting than MAX_POOLED must not grow
        // the retained pool past the cap (excess buffers drop)
        fn nest(depth: usize) {
            if depth > 0 {
                with_scratch(32, |_| nest(depth - 1));
            }
        }
        nest(MAX_POOLED + 4);
        let retained = SCRATCH.with(|s| s.borrow().len());
        assert!(retained <= MAX_POOLED, "retained {retained} buffers");
    }
}
