//! Allocation guard for the f64 Lanczos driver.
//!
//! A solve allocates one vector per step (the next basis vector), a
//! few small vectors per convergence check, and a fixed set-up cost;
//! everything else, in particular each Gram–Schmidt sweep, must reuse
//! memory. An allocation per sweep once showed up as a change in heap
//! layout that slowed the graph generation after each solve, so this
//! test counts the calling thread's allocations around one solve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix::gen::ba::barabasi_albert;
use socmix::linalg::tridiag::tridiag_eigen_last_row;
use socmix::linalg::{lanczos_extreme, DeflatedOp, KernelConfig, LanczosOptions, SymmetricWalkOp};
use socmix::par::Pool;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations per
/// thread so that other tests' threads do not show up in the count.
struct Counting;

fn count() {
    // `try_with`: allocations during thread teardown go uncounted
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `GlobalAlloc::alloc`, forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::realloc`, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `GlobalAlloc::dealloc`, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Allocations of the solve below outside its steps and checks: the
/// random start vector and its folded copy, the per-thread scratch
/// buffers of the two nested operator applies, and the growth of the
/// basis, α and β vectors. Measured on the one-vector-at-a-time
/// modified Gram–Schmidt driver that preceded the block sweep: 323
/// allocations in 200 steps, 96 of them in the eight checks.
const SETUP_ALLOCS: usize = 27;

#[test]
fn lanczos_allocates_once_per_step() {
    // Debug events format a line per convergence check; the guard is
    // about the solver's own memory, so it pins the threshold rather
    // than inheriting SOCMIX_LOG.
    socmix_obs::set_log_level(socmix_obs::Level::Warn);
    let g = barabasi_albert(3_000, 3, &mut StdRng::seed_from_u64(11));
    let sop = SymmetricWalkOp::with_kernel(&g, Pool::serial(), KernelConfig::blocked());
    let top = vec![sop.top_eigenvector()];
    let op = DeflatedOp::new(sop, &top);
    let opts = LanczosOptions {
        check_every: 25,
        ..LanczosOptions::default()
    };
    let (r, total) = allocations(|| lanczos_extreme(&op, opts, &mut StdRng::seed_from_u64(12)));
    assert!(r.converged, "not converged after {} steps", r.iterations);
    let steps = r.iterations;
    assert!(
        steps >= 100,
        "only {steps} steps: too few to tell a per-sweep allocation"
    );

    // the checks' own allocations: tridiag_eigen_last_row at each
    // checked size (in-loop every `check_every` steps, or once at the
    // end), counted on the same thread
    let mut sizes: Vec<usize> = (opts.check_every..=steps)
        .step_by(opts.check_every)
        .collect();
    if steps % opts.check_every != 0 {
        sizes.push(steps);
    }
    let checks: usize = sizes
        .iter()
        .map(|&k| {
            let diag: Vec<f64> = (0..k).map(|i| i as f64 / k as f64).collect();
            let off = vec![0.5; k - 1];
            allocations(|| tridiag_eigen_last_row(&diag, &off)).1
        })
        .sum();

    let bound = steps + checks + SETUP_ALLOCS;
    assert!(
        total <= bound,
        "{total} allocations in {steps} steps: more than one per step \
         + {checks} for the checks + {SETUP_ALLOCS} set-up"
    );
}
