//! Allocation guards for the f64 Lanczos drivers and the batched
//! evolver.
//!
//! `lanczos_extreme` keeps no basis: past a fixed set-up cost, only
//! its convergence checks allocate. `lanczos_topk` allocates one
//! vector per step (the next basis vector), a few small vectors per
//! check and its Ritz vectors at the end. Everything else, in
//! particular each Gram–Schmidt sweep, must reuse memory. An
//! allocation per sweep once showed up as a change in heap layout that
//! slowed the graph generation after each solve, so these tests count
//! the calling thread's allocations around one solve. `BatchEvolver`
//! takes its blocks from the per-thread scratch pool, so once warm a
//! block allocates the same whatever its walk length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix::gen::ba::barabasi_albert;
use socmix::graph::Graph;
use socmix::linalg::tridiag::{tridiag_eigen, tridiag_eigen_last_row};
use socmix::linalg::{lanczos_extreme, lanczos_topk, DeflatedOp, LanczosOptions, SymmetricWalkOp};
use socmix::markov::BatchEvolver;
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

/// `lanczos_extreme`'s allocations outside its checks in the solve
/// below: the random start vector and its folded copy, the per-thread
/// scratch buffers of the two nested operator applies, the two other
/// recurrence vectors, and the doubling growth of the α and β vectors.
/// Measured: 117 allocations in 200 steps, 96 of them in the eight
/// checks.
const EXTREME_SETUP_ALLOCS: usize = 21;

/// `lanczos_topk`'s allocations outside its steps, checks and final
/// eigendecomposition in the solve below: the start vector and its
/// folded copy, the operator scratch, the growth of the basis, α and β
/// vectors, and the Ritz vector, values and residuals it returns.
/// Measured: 530 allocations in 200 steps, 299 of them in the seven
/// checks and the eigendecomposition.
const TOPK_SETUP_ALLOCS: usize = 31;

/// Convergence checks every this many steps in both solves.
const CHECK_EVERY: usize = 25;

/// The deflated walk operator of a 3,000-node BA graph on the serial
/// pool. Debug events format a line per convergence check; the guards
/// are about the solvers' own memory, so they pin the threshold rather
/// than inheriting SOCMIX_LOG.
fn graph() -> Graph {
    socmix_obs::set_log_level(socmix_obs::Level::Warn);
    barabasi_albert(3_000, 3, &mut StdRng::seed_from_u64(11))
}

fn deflated(g: &Graph) -> (SymmetricWalkOp<'_>, Vec<Vec<f64>>) {
    let sop = SymmetricWalkOp::with_pool(g, Pool::serial());
    let top = vec![sop.top_eigenvector()];
    (sop, top)
}

/// Allocations of `tridiag` at each of the tridiagonal sizes `sizes`,
/// counted on this thread.
fn tridiag_allocs<T>(sizes: &[usize], tridiag: fn(&[f64], &[f64]) -> T) -> usize {
    sizes
        .iter()
        .map(|&k| {
            let diag: Vec<f64> = (0..k).map(|i| i as f64 / k as f64).collect();
            let off = vec![0.5; k - 1];
            allocations(|| tridiag(&diag, &off)).1
        })
        .sum()
}

#[test]
fn lanczos_extreme_allocates_nothing_per_step() {
    let g = graph();
    let (sop, top) = deflated(&g);
    let op = DeflatedOp::new(sop, &top);
    let opts = LanczosOptions {
        check_every: CHECK_EVERY,
        ..LanczosOptions::default()
    };
    let (r, total) = allocations(|| lanczos_extreme(&op, opts, &mut StdRng::seed_from_u64(12)));
    assert!(r.converged, "not converged after {} steps", r.iterations);
    let steps = r.iterations;
    assert!(
        steps >= 100,
        "only {steps} steps: too few to tell an allocation per step"
    );

    // the checks: tridiag_eigen_last_row at each checked size
    // (every `check_every` steps, and at the last step)
    let mut sizes: Vec<usize> = (CHECK_EVERY..=steps).step_by(CHECK_EVERY).collect();
    if steps % CHECK_EVERY != 0 {
        sizes.push(steps);
    }
    let checks = tridiag_allocs(&sizes, tridiag_eigen_last_row);

    let bound = checks + EXTREME_SETUP_ALLOCS;
    assert!(
        total <= bound,
        "{total} allocations in {steps} steps: more than {checks} for \
         the checks + {EXTREME_SETUP_ALLOCS} set-up"
    );
}

#[test]
fn lanczos_allocates_once_per_step() {
    // `lanczos_topk` with tol 0 runs exactly `max_iter` steps
    let g = graph();
    let (sop, top) = deflated(&g);
    let op = DeflatedOp::new(sop, &top);
    let steps = 200;
    let opts = LanczosOptions {
        max_iter: steps,
        tol: 0.0,
        check_every: CHECK_EVERY,
    };
    let (r, total) = allocations(|| lanczos_topk(&op, 1, opts, &mut StdRng::seed_from_u64(12)));
    assert_eq!(r.iterations, steps);

    // the in-loop checks stop before the last step, which builds the
    // Ritz vectors from the full eigendecomposition instead
    let sizes: Vec<usize> = (CHECK_EVERY..steps).step_by(CHECK_EVERY).collect();
    let checks =
        tridiag_allocs(&sizes, tridiag_eigen_last_row) + tridiag_allocs(&[steps], tridiag_eigen);

    let bound = steps + checks + TOPK_SETUP_ALLOCS;
    assert!(
        total <= bound,
        "{total} allocations in {steps} steps: more than one per step \
         + {checks} for the checks + {TOPK_SETUP_ALLOCS} set-up"
    );
}

#[test]
fn batch_evolver_allocates_nothing_per_step_or_block() {
    // Once one block has warmed this thread's scratch pool, a block
    // allocates only its output (the series and the active-column
    // index): no block, no TVD row, and no growth of a series per
    // step, with or without retirement.
    let g = graph();
    let batch = BatchEvolver::new(&g);
    let sources: Vec<u32> = (0..16).map(|k| k * 181).collect();
    for retire in [None, Some(0.2)] {
        let _warm = batch.tvd_series_block(&sources, 10, retire);
        let (short, at_10) = allocations(|| batch.tvd_series_block(&sources, 10, retire));
        let (long, at_400) = allocations(|| batch.tvd_series_block(&sources, 400, retire));
        if retire.is_some() {
            // the retirement path ran: some column crossed early
            assert!(
                short.iter().any(|s| s[9] < 0.2),
                "nothing retired by t = 10"
            );
        }
        assert_eq!((short.len(), long[0].len()), (16, 400));
        assert_eq!(
            at_10, at_400,
            "retire {retire:?}: {at_10} allocations at t_max 10, {at_400} at 400"
        );
        // the outer vector, one series per source, the active index
        assert!(
            at_400 <= sources.len() + 2,
            "retire {retire:?}: {at_400} allocations for {} sources",
            sources.len()
        );
        // a probe's last, narrower block reuses the full blocks' buffers
        let (_, narrow) = allocations(|| batch.tvd_series_block(&sources[..10], 400, retire));
        assert!(
            narrow <= 10 + 2,
            "retire {retire:?}: {narrow} allocations for 10 sources"
        );
    }
}
