//! Power iteration with Rayleigh quotients.
//!
//! The second, independent SLEM method: on the deflated symmetric walk
//! operator the dominant eigenvalue *in modulus* is exactly
//! `µ = max(λ₂, −λₙ)`, so plain power iteration recovers the SLEM
//! directly. Needs only O(n) memory — the fallback for graphs whose
//! Lanczos basis would not fit — and serves as a cross-check on the
//! Lanczos path in tests.
//!
//! Convergence is geometric with ratio `|λ_second|/|λ_dominant|`;
//! when λ₂ ≈ −λₙ (near-bipartite graphs) the *eigenvector* stalls,
//! but the Rayleigh-quotient *modulus* still converges to µ, which is
//! all the mixing bounds need.

use crate::op::{LinearOp, LinearOpF32};
use crate::vecops::{
    axpy, dot, dot32, norm2, norm2_32, normalize, normalize32, resid_norm32, scale32,
};
use rand::Rng;
use socmix_obs::{obs_debug, Counter, Histogram, Span};

static RUNS: Counter = Counter::new("linalg.power.runs");
static ITERS: Counter = Counter::new("linalg.power.iters");
/// Wall time per power-iteration run (scalar and mixed drivers); on a
/// trace timeline one span per SLEM solve.
static RUN_NS: Histogram = Histogram::new("linalg.power.run_ns");
/// Times the ±pair degeneracy forced the two-step Rayleigh fallback in
/// [`spectral_radius_in_complement`].
static TWO_STEP_FALLBACKS: Counter = Counter::new("linalg.power.two_step_fallback");
/// Mixed-precision driver invocations.
static MIXED_RUNS: Counter = Counter::new("linalg.power.mixed_runs");
/// Iterations the mixed driver spent in the cheap f32 phase.
static MIXED_F32_ITERS: Counter = Counter::new("linalg.power.f32_iters");

/// Emit a residual-trajectory event every this many iterations.
const TRACE_EVERY: usize = 100;

/// Residual level below which single precision cannot reliably improve
/// the iterate: one ulp of an O(1) eigenvalue in f32 is ≈1.2e-7, and
/// the gathered matvec noise sits a little above that.
const F32_RESIDUAL_FLOOR: f64 = 1e-6;
/// The f32 phase also hands over when the residual is already inside
/// f32 noise territory (below this ceiling) and has stopped improving
/// — iterating in f32 past its own floor is wasted work.
const F32_STALL_CEILING: f64 = 1e-4;
/// "Stopped improving" = no relative improvement better than this
/// factor for [`F32_STALL_WINDOW`] consecutive iterations.
const F32_STALL_IMPROVEMENT: f64 = 0.995;
const F32_STALL_WINDOW: usize = 12;
/// While the f32 residual is clearly above [`F32_STALL_CEILING`] the
/// cheap phase measures it only every this many iterations: the check
/// costs several O(n) passes on top of the gather, and far from
/// convergence the residual cannot cross the exit thresholds between
/// checks by more than the geometric factor a few extra iterations
/// cost. Once inside noise territory the check reverts to every
/// iteration so the stall window keeps its per-iteration meaning.
const F32_CHECK_EVERY: usize = 10;

/// Options for [`power_iteration`].
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    /// Maximum iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the residual `‖Op·v − λv‖`.
    pub tol: f64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            max_iter: 5_000,
            tol: 1e-9,
        }
    }
}

/// Result of [`power_iteration`].
#[derive(Debug, Clone)]
pub struct PowerResult {
    /// Rayleigh quotient at the final iterate — the dominant
    /// eigenvalue (signed).
    pub eigenvalue: f64,
    /// Final unit iterate (the eigenvector estimate).
    pub vector: Vec<f64>,
    /// Final residual `‖Op·v − λv‖`.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the residual met the tolerance.
    pub converged: bool,
}

/// Power iteration for the dominant (largest-modulus) eigenpair of a
/// symmetric operator.
///
/// When the dominant eigenvalue is negative the iterate alternates
/// sign; the Rayleigh quotient handles that transparently. When the
/// top two eigenvalues have equal modulus and opposite signs the
/// vector cycles between their combination — the reported residual
/// stays large but `|eigenvalue|` still approaches the common
/// modulus; callers interested only in µ should read
/// `eigenvalue.abs()` (see [`spectral_radius_in_complement`] for the
/// aggregated helper).
pub fn power_iteration<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: PowerOptions,
    rng: &mut R,
) -> PowerResult {
    let n = op.dim();
    assert!(n > 0, "operator must be non-empty");
    RUNS.incr();
    let _span = Span::start(&RUN_NS);
    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    // fold into the operator's range (projects when Op is deflated)
    let w = op.apply_vec(&v);
    if norm2(&w) > 1e-12 {
        v = w;
    }
    if normalize(&mut v) == 0.0 {
        return PowerResult {
            eigenvalue: 0.0,
            vector: v,
            residual: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let mut lambda = 0.0;
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut w = vec![0.0; n];
    // reusable residual buffer: the loop performs no heap allocation
    let mut resid = vec![0.0; n];
    for it in 0..opts.max_iter {
        iterations = it + 1;
        ITERS.incr();
        op.apply(&v, &mut w);
        lambda = dot(&v, &w);
        // residual ‖w − λv‖
        resid.copy_from_slice(&w);
        axpy(-lambda, &v, &mut resid);
        residual = norm2(&resid);
        if iterations % TRACE_EVERY == 0 {
            obs_debug!(
                "linalg.power",
                "iter {iterations}: lambda {lambda:.8} residual {residual:.3e}"
            );
        }
        if residual < opts.tol {
            break;
        }
        if normalize(&mut w) == 0.0 {
            // iterate collapsed: eigenvalue 0 on this component
            lambda = 0.0;
            residual = 0.0;
            break;
        }
        std::mem::swap(&mut v, &mut w);
    }
    PowerResult {
        eigenvalue: lambda,
        vector: v,
        residual,
        iterations,
        converged: residual < opts.tol,
    }
}

/// Mixed-precision power iteration: cheap f32 iterations followed by
/// f64 residual-correction iterations and a final f64 Rayleigh polish.
///
/// `op64` and `op32` must represent the *same* operator at the two
/// precisions (same dimension, entries within f32 rounding). The f32
/// phase runs until its residual reaches the larger of `opts.tol` and
/// the f32 noise floor (≈1e-6), or visibly stalls inside f32 noise
/// territory, or the budget runs out; the iterate is then promoted to
/// f64 and iterated further under the exact `opts.tol` criterion.
///
/// The final f64 application that measures the polished Rayleigh
/// quotient and residual is a *measurement*, not an iteration, and is
/// not charged against `opts.max_iter`; `iterations` counts f32 and
/// f64 iterations together and never exceeds the budget. Because the
/// Rayleigh quotient is quadratically accurate in the iterate error,
/// an f32-accurate vector (error ≈1e-7) already pins the eigenvalue
/// to ≈1e-13 — the polish makes that accuracy, and the honesty of
/// `residual`/`converged`, independent of the f32 phase.
pub fn power_iteration_mixed<Op64, Op32, R>(
    op64: &Op64,
    op32: &Op32,
    opts: PowerOptions,
    rng: &mut R,
) -> PowerResult
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
    // --- Phase A: f32 iterations. Same start-up as the f64 driver:
    // draw, fold into the operator's range, normalize-or-bail.
    let mut v32: Vec<f32> = (0..n).map(|_| (rng.random::<f64>() - 0.5) as f32).collect();
    let mut w32 = vec![0.0f32; n];
    op32.apply32(&v32, &mut w32);
    if norm2_32(&w32) > 1e-6 {
        std::mem::swap(&mut v32, &mut w32);
    }
    if normalize32(&mut v32) == 0.0 {
        return PowerResult {
            eigenvalue: 0.0,
            vector: v32.iter().map(|&x| f64::from(x)).collect(),
            residual: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let f32_tol = opts.tol.max(F32_RESIDUAL_FLOOR);
    let mut iterations = 0;
    let mut best_residual = f64::INFINITY;
    let mut stalled_for = 0usize;
    let mut check_every = F32_CHECK_EVERY;
    // ‖v32‖ is tracked, not enforced: the scale pass that would keep
    // the iterate unit costs as much as the matvec's own pre-scale,
    // so the iterate is only rescaled once its norm leaves [1/4, 4)
    // (rare for walk operators, whose spectrum lies in [−1, 1]); the
    // measurements below divide the tracked drift out instead.
    let mut v_norm = 1.0f64;
    while iterations < opts.max_iter {
        iterations += 1;
        ITERS.incr();
        MIXED_F32_ITERS.incr();
        op32.apply32(&v32, &mut w32);
        let w_norm = norm2_32(&w32);
        if w_norm == 0.0 {
            // iterate collapsed in f32; promote and let f64 decide
            break;
        }
        // the budget's final iterate is always measured so the
        // reported residual is never more than `check_every` stale
        if iterations % check_every == 0 || iterations == opts.max_iter {
            // Rayleigh data for the *unit* iterate v̂ = v/‖v‖: with
            // w = Op·v this is λ = v·w/‖v‖² and ‖Op·v̂ − λv̂‖ =
            // ‖w − λv‖/‖v‖, one fused pass each.
            let lambda32 = dot32(&v32, &w32) / (v_norm * v_norm);
            let residual32 = resid_norm32(&w32, &v32, lambda32) / v_norm;
            if residual32 < best_residual * F32_STALL_IMPROVEMENT {
                best_residual = residual32;
                stalled_for = 0;
            } else {
                stalled_for += 1;
            }
            if iterations % TRACE_EVERY == 0 {
                obs_debug!(
                    "linalg.power",
                    "mixed iter {iterations} (f32): lambda {lambda32:.8} residual {residual32:.3e}"
                );
            }
            if residual32 < f32_tol {
                break;
            }
            // Stall only counts inside f32 noise territory: a slowly
            // but genuinely converging residual at 1e-2 should stay on
            // the cheap path — that is the whole point of the f32
            // phase. Near the floor every iterate is measured again.
            if residual32 < F32_STALL_CEILING {
                check_every = 1;
                if stalled_for >= F32_STALL_WINDOW {
                    obs_debug!(
                        "linalg.power",
                        "mixed iter {iterations}: f32 residual stalled at {residual32:.3e}; \
                         promoting"
                    );
                    break;
                }
            }
        }
        v_norm = if (0.25..4.0).contains(&w_norm) {
            w_norm
        } else {
            scale32(&mut w32, (1.0 / w_norm) as f32);
            1.0
        };
        std::mem::swap(&mut v32, &mut w32);
    }
    // --- Phase B: promote and correct in f64. ---
    let mut v: Vec<f64> = v32.iter().map(|&x| f64::from(x)).collect();
    normalize(&mut v); // divides out the tracked phase-A norm drift
    let mut lambda;
    let mut residual;
    let mut w = vec![0.0; n];
    let mut resid = vec![0.0; n];
    loop {
        // First pass is the uncounted Rayleigh polish / measurement;
        // subsequent passes are counted f64 correction iterations.
        op64.apply(&v, &mut w);
        lambda = dot(&v, &w);
        resid.copy_from_slice(&w);
        axpy(-lambda, &v, &mut resid);
        residual = norm2(&resid);
        if residual < opts.tol || iterations >= opts.max_iter {
            break;
        }
        iterations += 1;
        ITERS.incr();
        if iterations % TRACE_EVERY == 0 {
            obs_debug!(
                "linalg.power",
                "mixed iter {iterations} (f64): lambda {lambda:.8} residual {residual:.3e}"
            );
        }
        if normalize(&mut w) == 0.0 {
            lambda = 0.0;
            residual = 0.0;
            break;
        }
        std::mem::swap(&mut v, &mut w);
    }
    PowerResult {
        eigenvalue: lambda,
        vector: v,
        residual,
        iterations,
        converged: residual < opts.tol,
    }
}

/// Result of [`spectral_radius_in_complement`]: the modulus estimate
/// together with the provenance callers need to report honestly.
#[derive(Debug, Clone, Copy)]
pub struct SpectralRadius {
    /// Largest |eigenvalue| estimate.
    pub radius: f64,
    /// Power-iteration steps actually performed (not the budget).
    pub iterations: usize,
    /// Whether the estimate is backed by a residual below tolerance —
    /// either the power iterate itself, or, in the ±pair degenerate
    /// case, the two-step residual `‖Op²v − λ²v‖`.
    pub converged: bool,
}

/// Estimates the spectral radius of `op` (largest |eigenvalue|),
/// robust to the ±pair degeneracy: runs power iteration, and if the
/// residual stalls (the ± case), extracts the modulus from the
/// two-step Rayleigh quotient `√(v·Op²v)`, which converges even then.
pub fn spectral_radius_in_complement<Op: LinearOp, R: Rng + ?Sized>(
    op: &Op,
    opts: PowerOptions,
    rng: &mut R,
) -> SpectralRadius {
    let r = power_iteration(op, opts, rng);
    radius_from_result(op, opts, r)
}

/// Mixed-precision counterpart of [`spectral_radius_in_complement`]:
/// runs [`power_iteration_mixed`] and applies the same f64 two-step
/// Rayleigh fallback when the one-step residual stalls on a ±pair.
pub fn spectral_radius_in_complement_mixed<Op64, Op32, R>(
    op64: &Op64,
    op32: &Op32,
    opts: PowerOptions,
    rng: &mut R,
) -> SpectralRadius
where
    Op64: LinearOp,
    Op32: LinearOpF32,
    R: Rng + ?Sized,
{
    let r = power_iteration_mixed(op64, op32, opts, rng);
    radius_from_result(op64, opts, r)
}

/// Shared tail of the radius estimators: accept a converged one-step
/// result, otherwise fall back to the two-step Rayleigh quotient
/// (always in f64 — the fallback is two applications, not a loop).
fn radius_from_result<Op: LinearOp>(op: &Op, opts: PowerOptions, r: PowerResult) -> SpectralRadius {
    if r.converged {
        return SpectralRadius {
            radius: r.eigenvalue.abs(),
            iterations: r.iterations,
            converged: true,
        };
    }
    TWO_STEP_FALLBACKS.incr();
    obs_debug!(
        "linalg.power",
        "one-step residual stalled after {} iters; trying two-step Rayleigh fallback",
        r.iterations
    );
    // ± degeneracy: λ² from v·Op²v with the final iterate. The final
    // iterate is an (approximate) combination of the ± pair, which is
    // an eigenvector of Op², so convergence is judged on the two-step
    // residual ‖Op²v − λ²v‖ rather than the stalled one-step one.
    let w = op.apply_vec(&r.vector);
    let mut w2 = op.apply_vec(&w);
    let lam2 = dot(&r.vector, &w2).max(0.0);
    axpy(-lam2, &r.vector, &mut w2);
    let two_step_residual = norm2(&w2);
    SpectralRadius {
        radius: lam2.sqrt().max(r.eigenvalue.abs()),
        iterations: r.iterations,
        converged: two_step_residual < opts.tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::slem_dense;
    use crate::op::{DeflatedOp, DenseOp, SymmetricWalkOp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn dominant_positive_eigenvalue() {
        let op = DenseOp {
            data: vec![2.0, 1.0, 1.0, 2.0],
            n: 2,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let r = power_iteration(&op, PowerOptions::default(), &mut rng);
        assert!(r.converged);
        assert_close(r.eigenvalue, 3.0, 1e-7);
    }

    #[test]
    fn dominant_negative_eigenvalue() {
        // diag(-3, 1): dominant in modulus is -3
        let op = DenseOp {
            data: vec![-3.0, 0.0, 0.0, 1.0],
            n: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let r = power_iteration(&op, PowerOptions::default(), &mut rng);
        assert!(r.converged);
        assert_close(r.eigenvalue, -3.0, 1e-7);
    }

    #[test]
    fn walk_top_eigenvalue_is_one() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
        let op = SymmetricWalkOp::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let r = power_iteration(&op, PowerOptions::default(), &mut rng);
        assert_close(r.eigenvalue, 1.0, 1e-7);
    }

    #[test]
    fn deflated_power_matches_dense_slem() {
        let g = GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (1, 4),
        ])
        .build();
        let expect = slem_dense(&g);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(3);
        let mu = spectral_radius_in_complement(&defl, PowerOptions::default(), &mut rng);
        assert_close(mu.radius, expect, 1e-6);
        assert!(mu.converged);
        assert!(mu.iterations > 0 && mu.iterations < PowerOptions::default().max_iter);
    }

    #[test]
    fn pm_degenerate_pair_still_gives_modulus() {
        // eigenvalues {+2, -2}: vector never settles, modulus must
        let op = DenseOp {
            data: vec![0.0, 2.0, 2.0, 0.0],
            n: 2,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let opts = PowerOptions {
            max_iter: 200,
            tol: 1e-12,
        };
        let mu = spectral_radius_in_complement(&op, opts, &mut rng);
        assert_close(mu.radius, 2.0, 1e-8);
        // the one-step iterate never settles, but the two-step
        // residual does, so the estimate still reports converged
        assert!(mu.converged);
        assert_eq!(mu.iterations, opts.max_iter);
    }

    #[test]
    fn bipartite_slem_via_power() {
        // star K_{1,4}: spectrum {1, 0, 0, 0, -1} → µ = 1
        let g = GraphBuilder::from_edges([(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(5);
        let mu = spectral_radius_in_complement(&defl, PowerOptions::default(), &mut rng);
        assert_close(mu.radius, 1.0, 1e-6);
        assert!(mu.converged);
    }

    #[test]
    fn zero_operator() {
        let op = DenseOp {
            data: vec![0.0; 9],
            n: 3,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let r = power_iteration(&op, PowerOptions::default(), &mut rng);
        assert_eq!(r.eigenvalue, 0.0);
        assert!(r.converged);
    }

    /// Runs `f` on the f64 and f32 walk operators of `g` with λ₁
    /// deflated; the deflation bases live on this frame.
    fn with_deflated_pair<T>(
        g: &socmix_graph::Graph,
        f: impl FnOnce(
            &DeflatedOp<'_, SymmetricWalkOp<'_>>,
            &crate::op::DeflatedOpF32<'_, crate::op::SymmetricWalkOpF32<'_>>,
        ) -> T,
    ) -> T {
        use crate::kernel::KernelConfig;
        use crate::op::{DeflatedOpF32, SymmetricWalkOpF32};
        use socmix_par::Pool;
        let sop = SymmetricWalkOp::new(g);
        let basis = vec![sop.top_eigenvector()];
        let sop32 = SymmetricWalkOpF32::with_kernel(g, Pool::serial(), KernelConfig::mixed_f32());
        let basis32 = vec![sop32.top_eigenvector32()];
        f(
            &DeflatedOp::new(sop, &basis),
            &DeflatedOpF32::new(sop32, &basis32),
        )
    }

    #[test]
    fn mixed_power_matches_dense_slem() {
        let g = GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (1, 4),
        ])
        .build();
        let expect = slem_dense(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let mu = with_deflated_pair(&g, |defl, defl32| {
            spectral_radius_in_complement_mixed(defl, defl32, PowerOptions::default(), &mut rng)
        });
        assert_close(mu.radius, expect, 1e-6);
        assert!(mu.converged);
        assert!(mu.iterations > 0 && mu.iterations < PowerOptions::default().max_iter);
    }

    #[test]
    fn mixed_power_bipartite_star() {
        let g = GraphBuilder::from_edges([(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let mut rng = StdRng::seed_from_u64(9);
        let mu = with_deflated_pair(&g, |defl, defl32| {
            spectral_radius_in_complement_mixed(defl, defl32, PowerOptions::default(), &mut rng)
        });
        assert_close(mu.radius, 1.0, 1e-6);
        assert!(mu.converged);
    }

    #[test]
    fn mixed_budget_respected() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
        let mut rng = StdRng::seed_from_u64(10);
        let opts = PowerOptions {
            max_iter: 1,
            tol: 1e-15,
        };
        let r = with_deflated_pair(&g, |defl, defl32| {
            power_iteration_mixed(defl, defl32, opts, &mut rng)
        });
        assert_eq!(r.iterations, 1);
        assert!(!r.converged);
        // the uncounted polish still reports an honest f64 residual
        assert!(r.residual.is_finite() && r.residual > 0.0);
    }

    #[test]
    fn iteration_budget_respected() {
        let op = DenseOp {
            data: vec![1.0, 0.999, 0.999, 1.0],
            n: 2,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let opts = PowerOptions {
            max_iter: 3,
            tol: 1e-15,
        };
        let r = power_iteration(&op, opts, &mut rng);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }
}
