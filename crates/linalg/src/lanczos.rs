//! Lanczos iteration for symmetric operators.
//!
//! [`lanczos_extreme`] is the production SLEM path: it runs Lanczos on
//! the deflated symmetric walk operator and reads the extreme Ritz
//! values — the top one converges to λ₂ and the bottom one to λₙ,
//! giving `µ = max(λ₂, −λₙ)`. It keeps only the three-term
//! recurrence's three n-vectors and the tridiagonal coefficients: O(n)
//! memory at every graph size. Without reorthogonalization, Lanczos
//! grows duplicate ("ghost") copies of Ritz values that have converged
//! (Paige 1980; Cullum & Willoughby, *Lanczos Algorithms for Large
//! Symmetric Eigenvalue Computations*, 1985). A ghost never moves the
//! extreme Ritz values, but it shares a converged value without its
//! small residual bound, so the convergence test takes the smallest
//! bound among the Ritz values within [`GHOST_TOL`] of an extreme one.
//!
//! [`lanczos_topk`] returns Ritz vectors, so it stores its basis and
//! orthogonalizes each new vector against all of it: one Gram–Schmidt
//! sweep per step, repeated only when the DGKS test says the first
//! lost orthogonality (see [`reorthogonalize`]). The sweep is
//! [`block_sweep`], which takes eight coefficients per pass over `w`
//! and runs 256-bit AVX code where the CPU has it, with the same bits
//! as its portable path; its last ‖w‖ is the step's β. The
//! convergence checks of every driver need only the last row of the
//! tridiagonal eigenvector matrix, which [`tridiag_eigen_last_row`]
//! computes in O(k²) instead of O(k³).

use crate::op::LinearOp;
use crate::tridiag::{tridiag_eigen, tridiag_eigen_last_row};
use crate::vecops::{axpy, block_sweep, dot, norm2, normalize, scale};
use rand::Rng;
use socmix_obs::{obs_debug, Counter, Histogram, Span};

static RUNS: Counter = Counter::new("linalg.lanczos.runs");
static STEPS: Counter = Counter::new("linalg.lanczos.steps");
/// Wall time per Lanczos run (extreme and topk); on a trace timeline
/// one span per SLEM solve.
static RUN_NS: Histogram = Histogram::new("linalg.lanczos.run_ns");
/// [`lanczos_topk`] steps whose reorthogonalization needed a second
/// sweep.
static REORTH_REPEATS: Counter = Counter::new("linalg.lanczos.reorth_repeats");

/// DGKS threshold: a Gram–Schmidt sweep that keeps no more than this
/// fraction of ‖w‖ has cancelled enough that rounding may have left
/// components along the basis, so the sweep is repeated.
const DGKS_ETA: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Ritz values closer than this to an extreme one count as copies of
/// it in [`lanczos_extreme`]'s convergence test.
const GHOST_TOL: f64 = 1e-10;

/// Options for the Lanczos drivers.
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Maximum Lanczos steps. [`lanczos_extreme`] keeps no basis, so
    /// this bounds only its time; [`lanczos_topk`] stores one vector
    /// per step, so for it this is also the basis size.
    pub max_iter: usize,
    /// Residual tolerance for the extreme Ritz pairs.
    pub tol: f64,
    /// Check convergence every this many steps.
    pub check_every: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 2_000,
            tol: 1e-9,
            check_every: 10,
        }
    }
}

/// Result of [`lanczos_extreme`].
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Largest Ritz value (→ largest eigenvalue of the operator).
    pub top: f64,
    /// Smallest Ritz value (→ smallest eigenvalue of the operator).
    pub bottom: f64,
    /// Residual bound `|β_k · s_k|` for the top pair.
    pub top_residual: f64,
    /// Residual bound for the bottom pair.
    pub bottom_residual: f64,
    /// Lanczos steps taken.
    pub iterations: usize,
    /// Whether both residuals met the tolerance.
    pub converged: bool,
}

/// What [`lanczos_extreme`] reports when the operator is zero on the
/// start vector.
const ZERO_SPECTRUM: LanczosResult = LanczosResult {
    top: 0.0,
    bottom: 0.0,
    top_residual: 0.0,
    bottom_residual: 0.0,
    iterations: 0,
    converged: true,
};

/// Runs Lanczos on a symmetric operator and returns its extreme
/// eigenvalues, in O(n) memory.
///
/// The starting vector is random (from `rng`) — callers wanting the
/// operator restricted to a subspace should wrap it in
/// [`crate::op::DeflatedOp`], whose projection is applied on every
/// operator application, keeping the Krylov space orthogonal to the
/// deflated directions. The residual bounds are ghost-aware (see the
/// module docs).
///
/// # Panics
///
/// Panics if the operator dimension is 0.
pub fn lanczos_extreme<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: LanczosOptions,
    rng: &mut R,
) -> LanczosResult {
    let n = op.dim();
    assert!(n > 0, "operator must be non-empty");
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let max_iter = opts.max_iter.max(1);
    let check_every = opts.check_every.max(1);

    let Some(mut v) = folded_start(op, rng) else {
        return ZERO_SPECTRUM;
    };
    // v_{j-1}, and v_{j+1} once scaled: the three vectors rotate
    let mut prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut beta = 0.0;
    loop {
        STEPS.incr();
        op.apply(&v, &mut w);
        // Paige's order: α is taken after β_{j-1}·v_{j-1} comes off
        if !alphas.is_empty() {
            axpy(-beta, &prev, &mut w);
        }
        let alpha = dot(&w, &v);
        axpy(-alpha, &v, &mut w);
        beta = norm2(&w);
        alphas.push(alpha);
        // below 1e-14 the Krylov space is exhausted and T is exact
        let exhausted = beta < 1e-14;
        betas.push(if exhausted { 0.0 } else { beta });
        let last = exhausted || alphas.len() == max_iter;
        if last || alphas.len().is_multiple_of(check_every) {
            let r = extreme_ritz(&alphas, &betas, opts.tol);
            if r.converged || last {
                return r;
            }
        }
        scale(&mut w, 1.0 / beta);
        std::mem::swap(&mut prev, &mut v);
        std::mem::swap(&mut v, &mut w);
    }
}

/// The extreme Ritz values of the tridiagonal matrix with diagonal
/// `alphas` and off-diagonal `betas` (whose last entry is the β of the
/// step that would come next), with their ghost-aware residual bounds.
fn extreme_ritz(alphas: &[f64], betas: &[f64], tol: f64) -> LanczosResult {
    let k = alphas.len();
    let (vals, last) = tridiag_eigen_last_row(alphas, &betas[..k - 1]);
    let beta_last = betas[k - 1];
    let res_top = ghost_aware_residual(&vals, &last, beta_last, 0);
    let res_bot = ghost_aware_residual(&vals, &last, beta_last, k - 1);
    // residual trajectory: one event per convergence check
    obs_debug!(
        "linalg.lanczos",
        "step {k}: ritz [{:.8}, {:.8}] residuals [{res_top:.3e}, {res_bot:.3e}]",
        vals[k - 1],
        vals[0]
    );
    LanczosResult {
        top: vals[0],
        bottom: vals[k - 1],
        top_residual: res_top,
        bottom_residual: res_bot,
        iterations: k,
        converged: res_top < tol && res_bot < tol,
    }
}

/// Residual bound of the Ritz value `vals[i]`: the smallest
/// `|β · last[j]|` over the Ritz values `vals[j]` within [`GHOST_TOL`]
/// of it.
fn ghost_aware_residual(vals: &[f64], last: &[f64], beta: f64, i: usize) -> f64 {
    vals.iter()
        .zip(last)
        .filter(|&(&val, _)| (val - vals[i]).abs() <= GHOST_TOL)
        .map(|(_, &s)| beta.abs() * s.abs())
        .fold(f64::INFINITY, f64::min)
}

/// A random start folded into the operator's range by one application
/// (for a `DeflatedOp` this also projects out the deflated
/// directions), or the raw random vector if that vanishes; normalized.
/// `None` when the operator's start is zero.
fn folded_start<Op: LinearOp, R: Rng + ?Sized>(op: &Op, rng: &mut R) -> Option<Vec<f64>> {
    let mut v: Vec<f64> = (0..op.dim()).map(|_| rng.random::<f64>() - 0.5).collect();
    let w = op.apply_vec(&v);
    if norm2(&w) > 1e-12 {
        v = w;
    }
    (normalize(&mut v) != 0.0).then_some(v)
}

/// Result of [`lanczos_topk`]: the leading Ritz pairs.
#[derive(Debug, Clone)]
pub struct TopkResult {
    /// Ritz values, descending; `values.len() == k` requested (or the
    /// reached basis size if smaller).
    pub values: Vec<f64>,
    /// `vectors[j]` is the unit Ritz vector for `values[j]`.
    pub vectors: Vec<Vec<f64>>,
    /// Residual bounds `|β·s|` per pair.
    pub residuals: Vec<f64>,
    /// Lanczos steps taken.
    pub iterations: usize,
}

/// Runs Lanczos and returns the `k` *largest* eigenpairs (values and
/// vectors) of a symmetric operator.
///
/// Used by the spectral-embedding clustering in `socmix-community`:
/// on the deflated walk operator the top-k pairs are λ₂..λ_{k+1} and
/// their eigenvectors — the coordinates that separate communities.
///
/// Convergence is judged on the k-th pair's residual; the basis grows
/// until `opts.max_iter` (at most n).
pub fn lanczos_topk<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    k: usize,
    opts: LanczosOptions,
    rng: &mut R,
) -> TopkResult {
    topk_with(op, k, opts, rng, block_sweep)
}

/// [`lanczos_topk`] with the Gram–Schmidt sweep given, so tests can
/// run the driver on each path of [`block_sweep`].
fn topk_with<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    k: usize,
    opts: LanczosOptions,
    rng: &mut R,
    sweep: Sweep,
) -> TopkResult {
    let n = op.dim();
    assert!(n > 0 && k >= 1);
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let max_iter = opts.max_iter.min(n).max(k);
    let check_every = opts.check_every.max(1);

    let Some(v) = folded_start(op, rng) else {
        return TopkResult {
            values: vec![0.0; k.min(n)],
            vectors: vec![vec![0.0; n]; k.min(n)],
            residuals: vec![0.0; k.min(n)],
            iterations: 0,
        };
    };
    let mut basis: Vec<Vec<f64>> = vec![v];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut exhausted = false;

    for j in 0..max_iter {
        STEPS.incr();
        let mut w = vec![0.0; n];
        op.apply(&basis[j], &mut w);
        let alpha = dot(&w, &basis[j]);
        axpy(-alpha, &basis[j], &mut w);
        if j > 0 {
            axpy(-betas[j - 1], &basis[j - 1], &mut w);
        }
        let (_, beta) = reorthogonalize(&mut w, &basis, sweep);
        alphas.push(alpha);
        if beta < 1e-14 {
            betas.push(0.0);
            exhausted = true;
            break;
        }
        betas.push(beta);
        if basis.len() == max_iter {
            break;
        }
        scale(&mut w, 1.0 / beta);
        basis.push(w);

        // convergence check on the k-th pair
        if (j + 1) % check_every == 0 && j + 1 >= k {
            let m = alphas.len();
            let (_, last) = tridiag_eigen_last_row(&alphas, &betas[..m - 1]);
            let res_k = betas[m - 1].abs() * last[k.min(m) - 1].abs();
            obs_debug!("linalg.lanczos", "topk step {m}: residual {res_k:.3e}");
            if res_k < opts.tol {
                break;
            }
        }
    }
    let m = alphas.len();
    let (vals, vecs) = tridiag_eigen(&alphas, &betas[..m - 1]);
    let beta_last = if exhausted { 0.0 } else { betas[m - 1] };
    let kk = k.min(m);
    let mut out_vecs = Vec::with_capacity(kk);
    let mut residuals = Vec::with_capacity(kk);
    for sv in vecs.iter().take(kk) {
        // Ritz vector: Σ_i s_{i,j} · v_i (the basis may hold one more
        // vector than the tridiagonal matrix has rows)
        let mut rv = vec![0.0f64; n];
        for (i, b) in basis.iter().take(m).enumerate() {
            axpy(sv[i], b, &mut rv);
        }
        normalize(&mut rv);
        out_vecs.push(rv);
        residuals.push(beta_last.abs() * sv[m - 1].abs());
    }
    TopkResult {
        values: vals[..kk].to_vec(),
        vectors: out_vecs,
        residuals,
        iterations: m,
    }
}

/// A Gram–Schmidt sweep of `w` against a basis: [`block_sweep`], or
/// one of its two paths in tests.
type Sweep = fn(&mut [f64], &[Vec<f64>]);

/// Orthogonalizes `w` against the orthonormal `basis` with `sweep`,
/// and returns how many sweeps that took and ‖w‖ after the last.
///
/// One sweep suffices when it keeps more than [`DGKS_ETA`] of ‖w‖.
/// Otherwise `w` was mostly inside the span of the basis, rounding in
/// the subtraction may have left components along it, and a second
/// sweep removes them (the Daniel–Gragg–Kaufman–Stewart test ARPACK
/// uses, which also repeats the sweep for a `w` that was already zero;
/// two sweeps are enough, Giraud–Langou–Rozložník 2005). The order of
/// every sum in [`block_sweep`] is fixed by `n` and the basis size, so
/// the result does not depend on the pool the operator ran on. The
/// returned norm is the [`norm2`] [`lanczos_topk`] would otherwise
/// recompute for β.
fn reorthogonalize(w: &mut [f64], basis: &[Vec<f64>], sweep: Sweep) -> (usize, f64) {
    let before = norm2(w);
    sweep(w, basis);
    let after = norm2(w);
    if after > DGKS_ETA * before {
        return (1, after);
    }
    REORTH_REPEATS.incr();
    sweep(w, basis);
    (2, norm2(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigen, slem_dense, DenseMatrix};
    use crate::op::{DeflatedOp, DenseOp, SymmetricWalkOp};
    use crate::vecops::block_sweep_portable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_operator_extremes() {
        let n = 20;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = (i as f64) / (n as f64 - 1.0) * 2.0 - 1.0; // [-1, 1]
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(0);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert!(r.converged);
        assert_close(r.top, 1.0, 1e-8);
        assert_close(r.bottom, -1.0, 1e-8);
    }

    #[test]
    fn agrees_with_jacobi_on_random_symmetric() {
        let n = 40;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = (((i * 31 + j * 17 + 3) % 101) as f64) / 101.0 - 0.5;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (jv, _) = jacobi_eigen(&m);
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = m.get(i, j);
            }
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(1);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, jv[0], 1e-7);
        assert_close(r.bottom, jv[n - 1], 1e-7);
    }

    #[test]
    fn walk_spectrum_top_is_one() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]).build();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, 1.0, 1e-9);
    }

    #[test]
    fn deflated_walk_gives_slem() {
        // odd cycle: SLEM = cos(π/n) (the −cos(π/n) end dominates)
        let n = 9;
        let g = {
            let mut b = GraphBuilder::new();
            for i in 0..n as u32 {
                b.add_edge(i, (i + 1) % n as u32);
            }
            b.build()
        };
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(SymmetricWalkOp::new(&g), &basis);
        let mut rng = StdRng::seed_from_u64(3);
        let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, (std::f64::consts::PI / n as f64).cos(), 1e-8);
    }

    #[test]
    fn deflated_matches_dense_slem_on_random_graph() {
        use rand::Rng;
        let mut grng = StdRng::seed_from_u64(7);
        // connected random graph on 60 nodes
        let mut b = GraphBuilder::new();
        for v in 1..60u32 {
            let u = grng.random_range(0..v);
            b.add_edge(u, v);
        }
        for _ in 0..120 {
            let u = grng.random_range(0..60u32);
            let v = grng.random_range(0..60u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let expect = slem_dense(&g);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(8);
        let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, expect, 1e-7);
    }

    /// K₃,₃: walk spectrum {1, 0⁴, −1}.
    fn k33() -> socmix_graph::Graph {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(u, 3 + v);
            }
        }
        b.build()
    }

    #[test]
    fn bipartite_bottom_is_minus_one() {
        // The folded start vector lies in the span of the ±1
        // eigenvectors, so the Krylov space runs out at step 2, where
        // the recurrence leaves only rounding noise, and the answer
        // must hold.
        let g = k33();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_eq!(r.iterations, 2);
        assert_close(r.bottom, -1.0, 1e-9);
        assert_close(r.top, 1.0, 1e-9);
    }

    #[test]
    fn topk_second_sweep_fires_where_the_krylov_space_runs_out() {
        // As above, the recurrence leaves only rounding noise at step
        // 2 for the first sweep to cancel: the second sweep fires
        // there, and the answer must hold.
        let g = k33();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        socmix_obs::set_metrics_enabled(true);
        let repeats = REORTH_REPEATS.get();
        let r = lanczos_topk(&op, 2, LanczosOptions::default(), &mut rng);
        assert!(REORTH_REPEATS.get() > repeats, "no second sweep");
        assert_eq!(r.iterations, 2);
        assert_close(r.values[0], 1.0, 1e-9);
        assert_close(r.values[1], -1.0, 1e-9);
    }

    #[test]
    fn ghost_residual_takes_the_converged_copy() {
        // The 2×2 block [[0.5, 0.5], [0.5, 0.5 + 2e-11]] in the last
        // rows has eigenvalues 1 + 1e-11 and 1e-11, both with a last
        // component near 1/√2: the unconverged copies. The 1×1 blocks
        // [2e-11] and [1] above it are converged copies of the same two
        // values, with last component 0, and sort just inside them. A
        // coupling of 1e-20 is below the QL split threshold, so the
        // blocks decouple exactly.
        let diag = [2e-11, 1.0, 0.5, 0.5 + 2e-11];
        let off = [1e-20, 1e-20, 0.5];
        let (vals, last) = tridiag_eigen_last_row(&diag, &off);
        let k = vals.len();
        assert!(vals[0] > vals[1] && vals[0] - vals[1] < GHOST_TOL);
        assert!(vals[k - 2] - vals[k - 1] < GHOST_TOL);
        let beta = 0.3;
        // the sorted-extreme copies alone would report ~0.21
        assert!(beta * last[0].abs() > 0.1 && beta * last[k - 1].abs() > 0.1);
        let top = ghost_aware_residual(&vals, &last, beta, 0);
        let bottom = ghost_aware_residual(&vals, &last, beta, k - 1);
        assert!(top <= 1e-15, "top residual {top:e}");
        assert!(bottom <= 1e-15, "bottom residual {bottom:e}");

        // a copy 1e-9 away is a different Ritz value: no longer counted
        let diag = [2e-11, 1.0 - 1e-9, 0.5, 0.5 + 2e-11];
        let (vals, last) = tridiag_eigen_last_row(&diag, &off);
        assert_eq!(
            ghost_aware_residual(&vals, &last, beta, 0).to_bits(),
            (beta * last[0].abs()).to_bits()
        );
    }

    #[test]
    fn extremes_hold_well_past_convergence_among_ghosts() {
        // tol 0 never passes, so each run takes exactly `max_iter`
        // steps, here 2n to 3n: far more Ritz values than the at most
        // n − 1 distinct eigenvalues of the deflated operator, most of
        // them ghosts. Stopping at many step counts also catches ghosts
        // while they form, when a copy without the converged one's
        // small bound sorts first.
        let n = 300;
        let g = random_connected_graph(n as u32, 600, 46);
        let (jv, _) = jacobi_eigen(&DenseMatrix::symmetric_walk_matrix(&g));
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        for start in 0..3 {
            for steps in (2 * n..=3 * n).step_by(10) {
                let opts = LanczosOptions {
                    max_iter: steps,
                    tol: 0.0,
                    check_every: steps,
                };
                let r = lanczos_extreme(&defl, opts, &mut StdRng::seed_from_u64(start));
                assert_eq!(r.iterations, steps);
                assert_close(r.top, jv[1], 1e-9);
                assert_close(r.bottom, jv[n - 1], 1e-9);
                assert!(
                    r.top_residual < 1e-9 && r.bottom_residual < 1e-9,
                    "start {start}, {steps} steps: residuals {:e}, {:e}",
                    r.top_residual,
                    r.bottom_residual
                );
            }
        }
    }

    #[test]
    fn max_iter_cap_reports_unconverged_or_exact() {
        let g = tests_support::big_cycle(101);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(5);
        let opts = LanczosOptions {
            max_iter: 8,
            tol: 1e-12,
            check_every: 4,
        };
        let r = lanczos_extreme(&defl, opts, &mut rng);
        assert!(r.iterations <= 8);
        // with such a tiny basis the result is a valid *bound*:
        // Ritz values are inside the true spectrum
        assert!(r.top <= 1.0 + 1e-9);
        assert!(r.bottom >= -1.0 - 1e-9);
    }

    #[test]
    fn topk_matches_jacobi_on_dense() {
        let n = 30;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = (((i * 13 + j * 7 + 1) % 17) as f64) / 17.0 - 0.5;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (jv, _) = jacobi_eigen(&m);
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = m.get(i, j);
            }
        }
        let op = DenseOp { data, n };
        let mut rng = StdRng::seed_from_u64(21);
        let r = lanczos_topk(
            &op,
            4,
            LanczosOptions {
                max_iter: n,
                ..Default::default()
            },
            &mut rng,
        );
        for (&rv, &jvj) in r.values.iter().zip(&jv).take(4) {
            assert_close(rv, jvj, 1e-6);
        }
    }

    #[test]
    fn topk_vectors_are_eigenvectors() {
        let g = GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 5),
        ])
        .build();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(22);
        let r = lanczos_topk(&op, 3, LanczosOptions::default(), &mut rng);
        for (vec_j, &val_j) in r.vectors.iter().zip(&r.values).take(3) {
            let av = op.apply_vec(vec_j);
            for (&avi, &vji) in av.iter().zip(vec_j) {
                assert_close(avi, val_j * vji, 1e-6);
            }
        }
        // orthonormal
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert_close(crate::vecops::dot(&r.vectors[a], &r.vectors[b]), 0.0, 1e-7);
            }
        }
    }

    #[test]
    fn topk_top_value_is_one_for_walk() {
        let g = tests_support::big_cycle(31);
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(23);
        let r = lanczos_topk(&op, 2, LanczosOptions::default(), &mut rng);
        assert_close(r.values[0], 1.0, 1e-8);
        assert_close(r.values[1], (2.0 * std::f64::consts::PI / 31.0).cos(), 1e-7);
    }

    /// `k` orthonormal vectors of length `n` (Gram–Schmidt over seeded
    /// random vectors, each swept twice).
    fn orthonormal_basis(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
        while basis.len() < k {
            let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            for _ in 0..2 {
                for b in &basis {
                    crate::vecops::project_out(&mut v, b);
                }
            }
            normalize(&mut v);
            basis.push(v);
        }
        basis
    }

    /// `max_i |b_i · w| / ‖w‖`.
    fn max_overlap(w: &[f64], basis: &[Vec<f64>]) -> f64 {
        let wn = norm2(w);
        basis
            .iter()
            .map(|b| dot(b, w).abs() / wn)
            .fold(0.0, f64::max)
    }

    #[test]
    fn reorthogonalize_repeats_when_w_is_mostly_in_the_basis() {
        let (n, k) = (500, 40);
        let basis = orthonormal_basis(n, k + 1, 41);
        let (outside, basis) = basis.split_last().expect("k + 1 vectors");
        // w = Σ b_i + 1e-6 · u with u ⟂ basis: the first sweep cancels
        // all but a millionth of it, and its rounding stays behind
        let mut w = dgks_input(outside, basis, true);
        assert_eq!(reorthogonalize(&mut w, basis, block_sweep).0, 2);
        let overlap = max_overlap(&w, basis);
        assert!(overlap <= 1e-14, "overlap {overlap:e}");
    }

    #[test]
    fn reorthogonalize_sweeps_once_when_w_is_nearly_orthogonal() {
        let (n, k) = (500, 40);
        let basis = orthonormal_basis(n, k + 1, 42);
        let (outside, basis) = basis.split_last().expect("k + 1 vectors");
        let mut w = dgks_input(outside, basis, false);
        assert_eq!(reorthogonalize(&mut w, basis, block_sweep).0, 1);
        let overlap = max_overlap(&w, basis);
        assert!(overlap <= 1e-14, "overlap {overlap:e}");
    }

    /// The AVX path of [`block_sweep`], or `None` on a CPU without AVX.
    fn avx_sweep() -> Option<Sweep> {
        #[cfg(target_arch = "x86_64")]
        if crate::vecops::avx::available() {
            return Some(|w, basis| {
                // SAFETY: returned only after `available()` confirmed AVX.
                unsafe { crate::vecops::avx::block_sweep(w, basis) }
            });
        }
        None
    }

    fn skip_note(what: &str) {
        eprintln!("note: no AVX on this CPU; {what} checks the portable path only");
    }

    /// `w` for one DGKS branch: mostly outside the basis (`repeat`
    /// false, one sweep), or mostly inside it (two sweeps).
    fn dgks_input(outside: &[f64], basis: &[Vec<f64>], repeat: bool) -> Vec<f64> {
        let k = basis.len();
        if repeat {
            let mut w: Vec<f64> = outside.iter().map(|x| 1e-6 * x).collect();
            if k == 0 {
                // nothing to cancel: only a zero `w` repeats
                w.fill(0.0);
            }
            for (i, b) in basis.iter().enumerate() {
                axpy(1.0 + i as f64 / k as f64, b, &mut w);
            }
            w
        } else {
            let mut w = outside.to_vec();
            for b in basis {
                axpy(1e-3, b, &mut w);
            }
            w
        }
    }

    #[test]
    fn block_sweep_paths_agree_bit_for_bit() {
        let avx = avx_sweep();
        if avx.is_none() {
            skip_note("block_sweep_paths_agree_bit_for_bit");
        }
        for n in [1, 7, 8, 9, 500, 11_204] {
            for k in [0, 1, 7, 8, 9, 16, 17, 40] {
                let seed = (n * 100 + k) as u64;
                // an orthonormal basis plus a unit vector outside it
                // where R^n has room; otherwise unit vectors that are
                // not orthogonal, which still pin the arithmetic down
                let orthonormal = k < n;
                let vecs = if orthonormal {
                    orthonormal_basis(n, k + 1, seed)
                } else {
                    let mut rng = StdRng::seed_from_u64(seed);
                    (0..=k)
                        .map(|_| {
                            let mut v: Vec<f64> =
                                (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
                            normalize(&mut v);
                            v
                        })
                        .collect()
                };
                let (outside, basis) = vecs.split_last().expect("k + 1 vectors");
                for repeat in [false, true] {
                    let case = format!("n {n} k {k} repeat {repeat}");
                    let w0 = dgks_input(outside, basis, repeat);
                    let mut w = w0.clone();
                    let (sweeps, norm) = reorthogonalize(&mut w, basis, block_sweep_portable);
                    assert_eq!(norm.to_bits(), norm2(&w).to_bits(), "{case}");
                    if orthonormal {
                        assert_eq!(sweeps, 1 + usize::from(repeat), "{case}");
                        if norm > 0.0 {
                            let overlap = max_overlap(&w, basis);
                            assert!(overlap <= 1e-14, "{case}: overlap {overlap:e}");
                        }
                    }
                    if let Some(avx) = avx {
                        let mut wa = w0.clone();
                        let (sweeps_a, norm_a) = reorthogonalize(&mut wa, basis, avx);
                        assert_eq!(sweeps_a, sweeps, "{case}");
                        assert_eq!(norm_a.to_bits(), norm.to_bits(), "{case}");
                        let same = w.iter().zip(&wa).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{case}: AVX and portable w differ");
                    }
                }
            }
        }
    }

    #[test]
    fn topk_is_bit_identical_on_both_sweep_paths() {
        // 40+ steps: several full blocks and a partial one per sweep
        let g = random_connected_graph(3_000, 9_000, 44);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let opts = LanczosOptions {
            max_iter: 300,
            ..LanczosOptions::default()
        };
        let run = |sweep: Sweep| topk_with(&defl, 2, opts, &mut StdRng::seed_from_u64(45), sweep);
        let portable = run(block_sweep_portable);
        assert!(portable.residuals[1] < opts.tol && portable.iterations > 40);
        // the library's own dispatch: the AVX path wherever it can run
        if avx_sweep().is_none() {
            skip_note("topk_is_bit_identical_on_both_sweep_paths");
        }
        let dispatched = run(block_sweep);
        assert_eq!(dispatched.iterations, portable.iterations);
        for (d, p) in dispatched.values.iter().zip(&portable.values) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        for (d, p) in dispatched.vectors.iter().zip(&portable.vectors) {
            assert!(d.iter().zip(p).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// A spanning tree over `n` nodes plus `extra` seeded random edges.
    fn random_connected_graph(n: u32, extra: usize, seed: u64) -> socmix_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for v in 1..n {
            b.add_edge(rng.random_range(0..v), v);
        }
        for _ in 0..extra {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// `check_every: 0` would divide by zero in the check schedule; it
    /// means a check every step, like `check_every: 1`.
    fn every_step() -> LanczosOptions {
        LanczosOptions {
            check_every: 0,
            ..Default::default()
        }
    }

    #[test]
    fn extreme_accepts_check_every_zero() {
        let g = tests_support::big_cycle(9);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let zero = lanczos_extreme(&defl, every_step(), &mut StdRng::seed_from_u64(3));
        let one = lanczos_extreme(
            &defl,
            LanczosOptions {
                check_every: 1,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(zero.top.to_bits(), one.top.to_bits());
        assert_eq!(zero.iterations, one.iterations);
        assert_close(
            zero.top.max(-zero.bottom),
            (std::f64::consts::PI / 9.0).cos(),
            1e-8,
        );
    }

    #[test]
    fn topk_accepts_check_every_zero() {
        let g = tests_support::big_cycle(31);
        let op = SymmetricWalkOp::new(&g);
        let r = lanczos_topk(&op, 2, every_step(), &mut StdRng::seed_from_u64(23));
        assert_close(r.values[0], 1.0, 1e-8);
        assert_close(r.values[1], (2.0 * std::f64::consts::PI / 31.0).cos(), 1e-7);
    }

    #[test]
    fn one_node_graph_trivial() {
        // operator on a single node with a self-structure: dimension 1
        let op = DenseOp {
            data: vec![0.42],
            n: 1,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert_close(r.top, 0.42, 1e-12);
        assert_close(r.bottom, 0.42, 1e-12);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use socmix_graph::{Graph, GraphBuilder};

    pub fn big_cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build()
    }
}
