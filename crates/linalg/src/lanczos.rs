//! Lanczos iteration with full reorthogonalization.
//!
//! The production SLEM path: run Lanczos on the deflated symmetric
//! walk operator and read the extreme Ritz values — the top one
//! converges to λ₂ and the bottom one to λₙ, giving
//! `µ = max(λ₂, −λₙ)`.
//!
//! Full reorthogonalization (each new vector orthogonalized against
//! the whole basis every step) trades memory — `O(n·k)` for `k` basis
//! vectors — for numerical robustness; without it, Lanczos famously
//! produces ghost copies of converged eigenvalues. At the basis sizes
//! extremal problems need (k ≤ a few hundred) this is the right trade.
//! For graphs too large for the basis to fit in memory, use
//! [`crate::power::power_iteration`], which needs O(n).
//!
//! Reorthogonalization dominates a solve, so the f64 drivers read the
//! basis once per step: one Gram–Schmidt sweep, repeated only when the
//! DGKS test says the first lost orthogonality (see
//! [`reorthogonalize`]). The sweep is [`block_sweep`], which takes
//! eight coefficients per pass over `w` and runs 256-bit AVX code where
//! the CPU has it, with the same bits as its portable path; its last
//! ‖w‖ is the step's β. The convergence checks need only the last row
//! of the tridiagonal eigenvector matrix, which
//! [`tridiag_eigen_last_row`] computes in O(k²) instead of O(k³).

use crate::op::{LinearOp, LinearOpF32};
use crate::tridiag::{tridiag_eigen, tridiag_eigen_last_row};
use crate::vecops::{
    axpy, block_sweep, dot, dot32, norm2, norm2_32, normalize, normalize32, project_out32, scale,
};
use rand::Rng;
use socmix_obs::{obs_debug, Counter, Histogram, Span};

static RUNS: Counter = Counter::new("linalg.lanczos.runs");
static STEPS: Counter = Counter::new("linalg.lanczos.steps");
/// Mixed-precision driver invocations.
static MIXED_RUNS: Counter = Counter::new("linalg.lanczos.mixed_runs");
/// Wall time per Lanczos run (extreme/topk, scalar and mixed); on a
/// trace timeline one span per SLEM solve.
static RUN_NS: Histogram = Histogram::new("linalg.lanczos.run_ns");
/// Steps whose reorthogonalization needed a second sweep.
static REORTH_REPEATS: Counter = Counter::new("linalg.lanczos.reorth_repeats");

/// DGKS threshold: a Gram–Schmidt sweep that keeps no more than this
/// fraction of ‖w‖ has cancelled enough that rounding may have left
/// components along the basis, so the sweep is repeated.
const DGKS_ETA: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// β below this level in the f32 recurrence means the Krylov space is
/// exhausted *at f32 resolution* — continuing would only orthogonalize
/// rounding noise.
const F32_BETA_FLOOR: f64 = 1e-6;
/// Ritz-residual level the f32 recurrence can meaningfully certify;
/// in-loop convergence checks stop here even when `opts.tol` is
/// tighter, handing the rest to the f64 polish.
const F32_RESIDUAL_FLOOR: f64 = 1e-6;
/// Residual tolerance the polished f64 Ritz pairs are held to when
/// reporting `converged`: the basis itself carries f32-level error, so
/// tolerances tighter than this are not attainable on the mixed path.
const MIXED_TOL_FLOOR: f64 = 1e-5;
/// f64 shifted power-iteration refinement steps per extreme vector.
const MIXED_REFINE_STEPS: usize = 2;

/// Options for [`lanczos_extreme`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Maximum Lanczos steps (= maximum basis size).
    pub max_iter: usize,
    /// Residual tolerance for the extreme Ritz pairs.
    pub tol: f64,
    /// Check convergence every this many steps.
    pub check_every: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
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

/// Runs Lanczos on a symmetric operator and returns its extreme
/// eigenvalues.
///
/// The starting vector is random (from `rng`) — callers wanting the
/// operator restricted to a subspace should wrap it in
/// [`crate::op::DeflatedOp`], whose projection is applied on every
/// operator application, keeping the Krylov space orthogonal to the
/// deflated directions.
///
/// # Panics
///
/// Panics if the operator dimension is 0.
pub fn lanczos_extreme<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: LanczosOptions,
    rng: &mut R,
) -> LanczosResult {
    extreme_with(op, opts, rng, block_sweep)
}

/// [`lanczos_extreme`] with the Gram–Schmidt sweep given, so tests can
/// run the driver on each path of [`block_sweep`].
fn extreme_with<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: LanczosOptions,
    rng: &mut R,
    sweep: Sweep,
) -> LanczosResult {
    let n = op.dim();
    assert!(n > 0, "operator must be non-empty");
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let max_iter = opts.max_iter.min(n).max(1);
    let check_every = opts.check_every.max(1);

    // random start, normalized
    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    // one operator application folds the start into the operator's
    // range (for a DeflatedOp this also projects out the deflated
    // directions); if it vanishes, fall back to the raw random vector.
    {
        let w = op.apply_vec(&v);
        if norm2(&w) > 1e-12 {
            v = w;
        }
    }
    if normalize(&mut v) == 0.0 {
        // operator is zero on this vector; report a zero spectrum
        return LanczosResult {
            top: 0.0,
            bottom: 0.0,
            top_residual: 0.0,
            bottom_residual: 0.0,
            iterations: 0,
            converged: true,
        };
    }

    let mut basis: Vec<Vec<f64>> = vec![v];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();

    let result =
        |alphas: &[f64], betas: &[f64], iters: usize, forced: bool| -> Option<LanczosResult> {
            if alphas.is_empty() {
                return None;
            }
            let k = alphas.len();
            let (vals, last) = tridiag_eigen_last_row(alphas, &betas[..k - 1]);
            let beta_last = betas.get(k - 1).copied().unwrap_or(0.0);
            // residual bound for Ritz pair i: |β_k| · |s_{k,i}| where s is
            // the bottom component of T's eigenvector
            let res_top = beta_last.abs() * last[0].abs();
            let res_bot = beta_last.abs() * last[k - 1].abs();
            // residual trajectory: one event per convergence check
            obs_debug!(
                "linalg.lanczos",
                "step {iters}: ritz [{:.8}, {:.8}] residuals [{res_top:.3e}, {res_bot:.3e}]",
                vals[k - 1],
                vals[0]
            );
            let converged = res_top < opts.tol && res_bot < opts.tol;
            if converged || forced {
                Some(LanczosResult {
                    top: vals[0],
                    bottom: vals[k - 1],
                    top_residual: res_top,
                    bottom_residual: res_bot,
                    iterations: iters,
                    converged,
                })
            } else {
                None
            }
        };

    for j in 0..max_iter {
        STEPS.incr();
        // `w` is the only per-step allocation left: it becomes the
        // next basis vector (storage the algorithm must keep), while
        // the operator's own scratch is reused across applies.
        let mut w = vec![0.0; n];
        op.apply(&basis[j], &mut w);
        let alpha = dot(&w, &basis[j]);
        axpy(-alpha, &basis[j], &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        let (_, beta) = reorthogonalize(&mut w, &basis, sweep);
        alphas.push(alpha);
        if beta < 1e-14 {
            // invariant subspace found: the tridiagonal matrix is exact
            betas.push(0.0);
            return result(&alphas, &betas, j + 1, true).expect("nonempty");
        }
        betas.push(beta);
        if basis.len() == max_iter {
            break;
        }
        scale(&mut w, 1.0 / beta);
        basis.push(w);

        if (j + 1) % check_every == 0 {
            if let Some(r) = result(&alphas, &betas, j + 1, false) {
                return r;
            }
        }
    }
    let iters = alphas.len();
    result(&alphas, &betas, iters, true).expect("nonempty")
}

/// Mixed-precision Lanczos: the three-term recurrence and the full
/// reorthogonalization run entirely in f32 (half the memory traffic
/// and basis footprint), with every reduction accumulated in f64; the
/// extreme Ritz vectors are then reconstructed in f64, refined with a
/// few shifted power steps, and the reported eigenvalues are their
/// f64 Rayleigh quotients.
///
/// `op64` and `op32` must represent the same operator at the two
/// precisions. Because the Rayleigh quotient is quadratically accurate
/// in the vector error, an f32-accurate basis (vector error ≈1e-6)
/// yields eigenvalues accurate to ≈1e-12 after the polish. Residuals
/// and `converged` are measured in f64 against
/// `opts.tol.max(1e-5)` — tolerances tighter than the floor are not
/// attainable from an f32 basis and are reported honestly as such.
///
/// # Panics
///
/// Panics if the operator dimension is 0 or the two dims disagree.
pub fn lanczos_extreme_mixed<Op64, Op32, R>(
    op64: &Op64,
    op32: &Op32,
    opts: LanczosOptions,
    rng: &mut R,
) -> LanczosResult
where
    Op64: LinearOp,
    Op32: LinearOpF32,
    R: Rng + ?Sized,
{
    let n = op64.dim();
    assert!(n > 0, "operator must be non-empty");
    assert_eq!(op32.dim(), n, "f32/f64 operator dimension mismatch");
    RUNS.incr();
    MIXED_RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let max_iter = opts.max_iter.min(n).max(1);
    let check_every = opts.check_every.max(1);

    // random start, folded into the operator's range (projects out the
    // deflated directions when Op is deflated), in f32
    let mut v32: Vec<f32> = (0..n).map(|_| (rng.random::<f64>() - 0.5) as f32).collect();
    {
        let mut w32 = vec![0.0f32; n];
        op32.apply32(&v32, &mut w32);
        if norm2_32(&w32) > 1e-6 {
            v32 = w32;
        }
    }
    if normalize32(&mut v32) == 0.0 {
        return LanczosResult {
            top: 0.0,
            bottom: 0.0,
            top_residual: 0.0,
            bottom_residual: 0.0,
            iterations: 0,
            converged: true,
        };
    }

    let mut basis: Vec<Vec<f32>> = vec![v32];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let loop_tol = opts.tol.max(F32_RESIDUAL_FLOOR);

    for j in 0..max_iter {
        STEPS.incr();
        let mut w = vec![0.0f32; n];
        op32.apply32(&basis[j], &mut w);
        let alpha = dot32(&w, &basis[j]);
        crate::vecops::axpy32(-(alpha as f32), &basis[j], &mut w);
        if j > 0 {
            crate::vecops::axpy32(-(betas[j - 1] as f32), &basis[j - 1], &mut w);
        }
        // full reorthogonalization, two passes (coefficients in f64);
        // unlike the f64 drivers' `reorthogonalize`, both always run:
        // the 1e-6 cross-precision contract was measured with them
        for _ in 0..2 {
            for b in &basis {
                project_out32(&mut w, b);
            }
        }
        alphas.push(alpha);
        let beta = norm2_32(&w);
        if beta < F32_BETA_FLOOR {
            // Krylov space exhausted at f32 resolution
            betas.push(0.0);
            break;
        }
        betas.push(beta);
        if basis.len() == max_iter {
            break;
        }
        normalize32(&mut w);
        basis.push(w);

        if (j + 1) % check_every == 0 {
            let k = alphas.len();
            let (vals, last) = tridiag_eigen_last_row(&alphas, &betas[..k - 1]);
            let res_top = betas[k - 1].abs() * last[0].abs();
            let res_bot = betas[k - 1].abs() * last[k - 1].abs();
            obs_debug!(
                "linalg.lanczos",
                "mixed step {k}: ritz [{:.8}, {:.8}] residuals [{res_top:.3e}, {res_bot:.3e}]",
                vals[k - 1],
                vals[0]
            );
            if res_top < loop_tol && res_bot < loop_tol {
                break;
            }
        }
    }

    // --- f64 polish: reconstruct the extreme Ritz vectors from the
    // f32 basis, refine each with a few shifted power steps, and
    // re-measure everything in f64.
    let m = alphas.len();
    let (_, vecs) = tridiag_eigen(&alphas, &betas[..m - 1]);
    let reconstruct = |sv: &[f64]| -> Vec<f64> {
        let mut rv = vec![0.0f64; n];
        for (i, b) in basis.iter().take(m).enumerate() {
            let c = sv[i];
            for (ri, &bi) in rv.iter_mut().zip(b) {
                *ri += c * f64::from(bi);
            }
        }
        normalize(&mut rv);
        rv
    };
    // `shift = +1` refines toward the top of the spectrum via the
    // half-shifted operator (I + Op)/2, whose dominant eigenvector is
    // the wanted one; `shift = -1` uses (I − Op)/2 for the bottom.
    // Both applications go through op64, so a deflated operator keeps
    // projecting the iterate back into the complement.
    let polish = |mut v: Vec<f64>, shift: f64| -> (f64, f64) {
        let mut w = vec![0.0; n];
        for _ in 0..MIXED_REFINE_STEPS {
            op64.apply(&v, &mut w);
            scale(&mut w, 0.5 * shift);
            axpy(0.5, &v, &mut w);
            if normalize(&mut w) == 0.0 {
                break;
            }
            std::mem::swap(&mut v, &mut w);
        }
        op64.apply(&v, &mut w);
        let lambda = dot(&v, &w);
        axpy(-lambda, &v, &mut w);
        (lambda, norm2(&w))
    };
    let (top, top_residual) = polish(reconstruct(&vecs[0]), 1.0);
    let (bottom, bottom_residual) = polish(reconstruct(&vecs[m - 1]), -1.0);
    let mixed_tol = opts.tol.max(MIXED_TOL_FLOOR);
    LanczosResult {
        top,
        bottom,
        top_residual,
        bottom_residual,
        iterations: m,
        converged: top_residual < mixed_tol && bottom_residual < mixed_tol,
    }
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
/// until `opts.max_iter`.
pub fn lanczos_topk<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    k: usize,
    opts: LanczosOptions,
    rng: &mut R,
) -> TopkResult {
    let n = op.dim();
    assert!(n > 0 && k >= 1);
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let max_iter = opts.max_iter.min(n).max(k);
    let check_every = opts.check_every.max(1);

    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    {
        let w = op.apply_vec(&v);
        if norm2(&w) > 1e-12 {
            v = w;
        }
    }
    if normalize(&mut v) == 0.0 {
        return TopkResult {
            values: vec![0.0; k.min(n)],
            vectors: vec![vec![0.0; n]; k.min(n)],
            residuals: vec![0.0; k.min(n)],
            iterations: 0,
        };
    }
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
        let (_, beta) = reorthogonalize(&mut w, &basis, block_sweep);
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
/// the result does not depend on the pool or kernel the operator ran
/// on. The returned norm is the [`norm2`] the drivers would otherwise
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

    #[test]
    fn bipartite_bottom_is_minus_one() {
        // K_{3,3}: spectrum {1, 0, …, -1}. The folded start vector lies
        // in the span of the ±1 eigenvectors, so the Krylov space runs
        // out at step 2, where the recurrence leaves only rounding noise
        // for the first sweep to cancel: the second sweep fires there,
        // and the answer must hold.
        let g = {
            let mut b = GraphBuilder::new();
            for u in 0..3u32 {
                for v in 0..3u32 {
                    b.add_edge(u, 3 + v);
                }
            }
            b.build()
        };
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        socmix_obs::set_metrics_enabled(true);
        let repeats = REORTH_REPEATS.get();
        let r = lanczos_extreme(&op, LanczosOptions::default(), &mut rng);
        assert!(REORTH_REPEATS.get() > repeats, "no second sweep");
        assert_eq!(r.iterations, 2);
        assert_close(r.bottom, -1.0, 1e-9);
        assert_close(r.top, 1.0, 1e-9);
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

    fn f32_sym_op(g: &socmix_graph::Graph) -> crate::op::SymmetricWalkOpF32<'_> {
        use crate::kernel::KernelConfig;
        use socmix_par::Pool;
        crate::op::SymmetricWalkOpF32::with_kernel(g, Pool::serial(), KernelConfig::mixed_f32())
    }

    #[test]
    fn mixed_deflated_odd_cycle_closed_form() {
        let n = 9;
        let g = tests_support::big_cycle(n);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let sop32 = f32_sym_op(&g);
        let basis32 = vec![sop32.top_eigenvector32()];
        let defl32 = crate::op::DeflatedOpF32::new(sop32, &basis32);
        let mut rng = StdRng::seed_from_u64(30);
        let r = lanczos_extreme_mixed(&defl, &defl32, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, (std::f64::consts::PI / n as f64).cos(), 1e-7);
        assert!(
            r.converged,
            "residuals {:e}/{:e}",
            r.top_residual, r.bottom_residual
        );
    }

    #[test]
    fn mixed_matches_dense_slem_on_random_graph() {
        use rand::Rng;
        let mut grng = StdRng::seed_from_u64(31);
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
        let sop32 = f32_sym_op(&g);
        let basis32 = vec![sop32.top_eigenvector32()];
        let defl32 = crate::op::DeflatedOpF32::new(sop32, &basis32);
        let mut rng = StdRng::seed_from_u64(32);
        let r = lanczos_extreme_mixed(&defl, &defl32, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        assert_close(mu, expect, 1e-6);
    }

    #[test]
    fn mixed_bipartite_bottom_is_minus_one() {
        let g = {
            let mut b = GraphBuilder::new();
            for u in 0..3u32 {
                for v in 0..3u32 {
                    b.add_edge(u, 3 + v);
                }
            }
            b.build()
        };
        let op = SymmetricWalkOp::new(&g);
        let op32 = f32_sym_op(&g);
        let mut rng = StdRng::seed_from_u64(33);
        let r = lanczos_extreme_mixed(&op, &op32, LanczosOptions::default(), &mut rng);
        assert_close(r.bottom, -1.0, 1e-6);
        assert_close(r.top, 1.0, 1e-6);
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
    fn extreme_is_bit_identical_on_both_sweep_paths() {
        // 40+ steps: several full blocks and a partial one per sweep
        let g = random_connected_graph(3_000, 9_000, 44);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let run = |sweep: Sweep| {
            extreme_with(
                &defl,
                LanczosOptions::default(),
                &mut StdRng::seed_from_u64(45),
                sweep,
            )
        };
        let portable = run(block_sweep_portable);
        assert!(portable.converged && portable.iterations > 40);
        // the library's own dispatch: the AVX path wherever it can run
        if avx_sweep().is_none() {
            skip_note("extreme_is_bit_identical_on_both_sweep_paths");
        }
        let dispatched = run(block_sweep);
        assert_eq!(dispatched.top.to_bits(), portable.top.to_bits());
        assert_eq!(dispatched.bottom.to_bits(), portable.bottom.to_bits());
        assert_eq!(dispatched.iterations, portable.iterations);
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
    fn mixed_accepts_check_every_zero() {
        let g = tests_support::big_cycle(9);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let sop32 = f32_sym_op(&g);
        let basis32 = vec![sop32.top_eigenvector32()];
        let defl32 = crate::op::DeflatedOpF32::new(sop32, &basis32);
        let mut rng = StdRng::seed_from_u64(30);
        let r = lanczos_extreme_mixed(&defl, &defl32, every_step(), &mut rng);
        assert_close(
            r.top.max(-r.bottom),
            (std::f64::consts::PI / 9.0).cos(),
            1e-7,
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
