//! Power iteration with Rayleigh quotients.
//!
//! The second, independent SLEM method: on the deflated symmetric walk
//! operator the dominant eigenvalue *in modulus* is exactly
//! `µ = max(λ₂, −λₙ)`, so plain power iteration recovers the SLEM
//! directly. Needs only O(n) memory, as the Lanczos SLEM driver does,
//! and serves as an independent cross-check on it.
//!
//! Convergence is geometric with ratio `|λ_second|/|λ_dominant|`;
//! when λ₂ ≈ −λₙ (near-bipartite graphs) the *eigenvector* stalls,
//! but the Rayleigh-quotient *modulus* still converges to µ, which is
//! all the mixing bounds need.

use crate::op::LinearOp;
use crate::vecops::{axpy, dot, norm2, normalize};
use rand::Rng;
use socmix_obs::{obs_debug, Counter, Histogram, Span};

static RUNS: Counter = Counter::new("linalg.power.runs");
static ITERS: Counter = Counter::new("linalg.power.iters");
/// Wall time per power-iteration run; on a trace timeline one span per
/// SLEM solve.
static RUN_NS: Histogram = Histogram::new("linalg.power.run_ns");
/// Times the ±pair degeneracy forced the two-step Rayleigh fallback in
/// [`spectral_radius_in_complement`].
static TWO_STEP_FALLBACKS: Counter = Counter::new("linalg.power.two_step_fallback");

/// Emit a residual-trajectory event every this many iterations.
const TRACE_EVERY: usize = 100;

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
