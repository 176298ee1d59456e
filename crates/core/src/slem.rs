//! SLEM estimation — the spectral half of the paper's methodology.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_graph::Graph;
use socmix_linalg::power::spectral_radius_in_complement;
use socmix_linalg::{
    dense, lanczos_extreme, DeflatedOp, LanczosOptions, PowerOptions, SymmetricWalkOp,
};
use socmix_markov::ergodicity;
use socmix_par::Pool;

/// Which eigensolver backend computes µ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlemMethod {
    /// Lanczos on the deflated symmetric walk operator — the
    /// production path. It keeps no basis, so its memory is O(n) at
    /// every size.
    Lanczos,
    /// Power iteration on the deflated operator — O(n) memory, the
    /// independent cross-check.
    PowerIteration,
    /// Dense Jacobi — ground truth, O(n²) memory; only for n ≲ 512.
    Dense,
}

/// A SLEM estimate with its provenance.
#[derive(Debug, Clone)]
pub struct SlemEstimate {
    /// `µ = max(λ₂, −λₙ)` — the second largest eigenvalue modulus.
    pub mu: f64,
    /// Second largest eigenvalue λ₂ (when the backend resolves it;
    /// the power backend only resolves the dominant modulus).
    pub lambda2: Option<f64>,
    /// Smallest eigenvalue λₙ (same caveat).
    pub lambda_n: Option<f64>,
    /// Backend that produced the estimate.
    pub method: SlemMethod,
    /// Whether the backend reported convergence to its tolerance.
    pub converged: bool,
    /// Iterations used by the backend.
    pub iterations: usize,
}

/// Why a SLEM could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlemError {
    /// Graph is disconnected (walk not irreducible; µ would be 1
    /// trivially and the mixing time undefined). Extract the LCC
    /// first.
    Disconnected,
    /// Graph has fewer than 2 nodes.
    TooSmall,
}

impl std::fmt::Display for SlemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => {
                write!(
                    f,
                    "graph is disconnected; extract the largest component first"
                )
            }
            Self::TooSmall => write!(f, "graph needs at least 2 nodes"),
        }
    }
}

impl std::error::Error for SlemError {}

/// SLEM estimator: configure a backend, then [`Slem::estimate`].
///
/// # Example
///
/// ```
/// use socmix_core::Slem;
/// // K₉: the walk spectrum is {1, −1/8, …}, so µ = 1/8
/// let g = socmix_gen::fixtures::complete(9);
/// let est = Slem::lanczos(&g).estimate().unwrap();
/// assert!((est.mu - 1.0 / 8.0).abs() < 1e-7);
/// ```
///
/// Deterministic for a fixed seed (default 0x50C1A1 — set your own
/// with [`Slem::seed`] to vary the random start vectors).
pub struct Slem<'g> {
    graph: &'g Graph,
    method: SlemMethod,
    seed: u64,
    lanczos_opts: LanczosOptions,
    power_opts: PowerOptions,
    pool: Pool,
}

impl<'g> Slem<'g> {
    /// Estimator with the given backend.
    pub fn new(graph: &'g Graph, method: SlemMethod) -> Self {
        Slem {
            graph,
            method,
            seed: 0x50C1A1,
            lanczos_opts: LanczosOptions::default(),
            power_opts: PowerOptions::default(),
            pool: Pool::new(),
        }
    }

    /// Lanczos backend (shortcut).
    pub fn lanczos(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::Lanczos)
    }

    /// Power-iteration backend (shortcut).
    pub fn power_iteration(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::PowerIteration)
    }

    /// Dense Jacobi backend (shortcut; n ≲ 512).
    pub fn dense(graph: &'g Graph) -> Self {
        Self::new(graph, SlemMethod::Dense)
    }

    /// The default backend: the same estimator as [`Slem::lanczos`]
    /// (its answer reports [`SlemMethod::Lanczos`]), which converges at
    /// every graph size in O(n) memory.
    pub fn auto(graph: &'g Graph) -> Self {
        Self::lanczos(graph)
    }

    /// Sets the RNG seed for the iterative backends.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the Lanczos options.
    pub fn lanczos_options(mut self, opts: LanczosOptions) -> Self {
        self.lanczos_opts = opts;
        self
    }

    /// Overrides the power-iteration options.
    pub fn power_options(mut self, opts: PowerOptions) -> Self {
        self.power_opts = opts;
        self
    }

    /// Sets the thread pool the iterative backends apply the walk
    /// operator on. The answer is bit-for-bit independent of the pool
    /// (disjoint row chunks, no float reassociation); only wall-clock
    /// changes.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Computes the SLEM.
    ///
    /// Rejects disconnected graphs: the paper always extracts the
    /// largest connected component first, because the mixing time of
    /// a disconnected graph is undefined (µ = 1 with multiplicity).
    pub fn estimate(&self) -> Result<SlemEstimate, SlemError> {
        let g = self.graph;
        if g.num_nodes() < 2 {
            return Err(SlemError::TooSmall);
        }
        let erg = ergodicity(g);
        if !erg.connected {
            return Err(SlemError::Disconnected);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok(match self.method {
            SlemMethod::Dense => {
                let s = dense::DenseMatrix::symmetric_walk_matrix(g);
                let (vals, _) = dense::jacobi_eigen(&s);
                let n = g.num_nodes();
                SlemEstimate {
                    mu: vals[1].max(-vals[n - 1]),
                    lambda2: Some(vals[1]),
                    lambda_n: Some(vals[n - 1]),
                    method: SlemMethod::Dense,
                    converged: true,
                    iterations: 0,
                }
            }
            SlemMethod::Lanczos => {
                let sop = SymmetricWalkOp::with_pool(g, self.pool);
                let basis = vec![sop.top_eigenvector()];
                let defl = DeflatedOp::new(sop, &basis);
                let r = lanczos_extreme(&defl, self.lanczos_opts, &mut rng);
                SlemEstimate {
                    mu: r.top.max(-r.bottom).clamp(0.0, 1.0),
                    lambda2: Some(r.top),
                    lambda_n: Some(r.bottom),
                    method: SlemMethod::Lanczos,
                    converged: r.converged,
                    iterations: r.iterations,
                }
            }
            SlemMethod::PowerIteration => {
                let sop = SymmetricWalkOp::with_pool(g, self.pool);
                let basis = vec![sop.top_eigenvector()];
                let defl = DeflatedOp::new(sop, &basis);
                let mu = spectral_radius_in_complement(&defl, self.power_opts, &mut rng);
                SlemEstimate {
                    mu: mu.radius.clamp(0.0, 1.0),
                    lambda2: None,
                    lambda_n: None,
                    method: SlemMethod::PowerIteration,
                    converged: mu.converged,
                    iterations: mu.iterations,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_gen::fixtures;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn complete_graph_all_methods_agree() {
        let g = fixtures::complete(12);
        let expect = 1.0 / 11.0;
        for method in [
            SlemMethod::Dense,
            SlemMethod::Lanczos,
            SlemMethod::PowerIteration,
        ] {
            let est = Slem::new(&g, method).estimate().unwrap();
            assert_close(est.mu, expect, 1e-6);
        }
    }

    #[test]
    fn odd_cycle_closed_form() {
        let n = 15;
        let g = fixtures::cycle(n);
        let expect = (std::f64::consts::PI / n as f64).cos();
        let est = Slem::lanczos(&g).estimate().unwrap();
        assert_close(est.mu, expect, 1e-7);
        assert!(est.converged);
    }

    #[test]
    fn bipartite_slem_is_one() {
        let g = fixtures::complete_bipartite(4, 5);
        let est = Slem::lanczos(&g).estimate().unwrap();
        assert_close(est.mu, 1.0, 1e-7);
        assert!(est.lambda_n.unwrap() < -0.999999);
    }

    #[test]
    fn lanczos_matches_dense_on_fixture_zoo() {
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::lollipop(6, 3),
            fixtures::grid(5, 4),
            fixtures::binary_tree(4),
        ] {
            let d = Slem::dense(&g).estimate().unwrap().mu;
            let l = Slem::lanczos(&g).estimate().unwrap().mu;
            assert_close(d, l, 1e-6);
        }
    }

    #[test]
    fn power_matches_dense_on_fixture_zoo() {
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::grid(4, 4),
        ] {
            let d = Slem::dense(&g).estimate().unwrap().mu;
            let p = Slem::power_iteration(&g).estimate().unwrap().mu;
            assert_close(d, p, 1e-5);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let g = GraphBuilder::from_edges([(0, 1), (2, 3)]).build();
        assert!(matches!(
            Slem::lanczos(&g).estimate().unwrap_err(),
            SlemError::Disconnected
        ));
    }

    #[test]
    fn tiny_graph_rejected() {
        use socmix_graph::Graph;
        assert!(matches!(
            Slem::lanczos(&Graph::empty(1)).estimate().unwrap_err(),
            SlemError::TooSmall
        ));
    }

    #[test]
    fn barbell_mu_approaches_one_with_clique_size() {
        let small = Slem::dense(&fixtures::barbell(4, 0)).estimate().unwrap().mu;
        let large = Slem::dense(&fixtures::barbell(12, 0))
            .estimate()
            .unwrap()
            .mu;
        assert!(
            large > small,
            "bigger cliques ⇒ tighter bottleneck ⇒ larger µ"
        );
        assert!(large > 0.95);
    }

    #[test]
    fn auto_uses_lanczos_for_small_graphs() {
        let g = fixtures::petersen();
        let est = Slem::auto(&g).estimate().unwrap();
        assert_eq!(est.method, SlemMethod::Lanczos);
    }

    #[test]
    fn auto_is_lanczos() {
        for g in [
            fixtures::petersen(),
            fixtures::barbell(5, 2),
            fixtures::grid(5, 4),
        ] {
            let auto = Slem::auto(&g).seed(7).estimate().unwrap();
            let lanczos = Slem::lanczos(&g).seed(7).estimate().unwrap();
            assert_eq!(auto.mu.to_bits(), lanczos.mu.to_bits());
            assert_eq!(auto.iterations, lanczos.iterations);
            assert_eq!(auto.method, lanczos.method);
        }
    }

    #[test]
    fn seed_changes_start_not_answer() {
        let g = fixtures::barbell(6, 1);
        let a = Slem::lanczos(&g).seed(1).estimate().unwrap().mu;
        let b = Slem::lanczos(&g).seed(999).estimate().unwrap().mu;
        assert_close(a, b, 1e-7);
    }

    #[test]
    fn power_backend_reports_real_provenance() {
        let g = fixtures::petersen();
        let est = Slem::power_iteration(&g).estimate().unwrap();
        assert!(est.converged);
        assert!(
            est.iterations > 0 && est.iterations < PowerOptions::default().max_iter,
            "iterations must be the actual count, not the budget ({})",
            est.iterations
        );
        // a starved budget must be reported as not converged
        let starved = Slem::power_iteration(&g)
            .power_options(PowerOptions {
                max_iter: 1,
                tol: 1e-15,
            })
            .estimate()
            .unwrap();
        assert!(!starved.converged);
        assert_eq!(starved.iterations, 1);
    }

    #[test]
    fn pool_width_does_not_change_estimate() {
        let g = fixtures::barbell(8, 2);
        let serial = Slem::lanczos(&g).pool(Pool::serial()).estimate().unwrap();
        for threads in [2, 8] {
            let par = Slem::lanczos(&g)
                .pool(Pool::with_threads(threads))
                .estimate()
                .unwrap();
            assert_eq!(serial.mu.to_bits(), par.mu.to_bits());
        }
        let pserial = Slem::power_iteration(&g)
            .pool(Pool::serial())
            .estimate()
            .unwrap();
        let ppar = Slem::power_iteration(&g)
            .pool(Pool::with_threads(4))
            .estimate()
            .unwrap();
        assert_eq!(pserial.mu.to_bits(), ppar.mu.to_bits());
        assert_eq!(pserial.iterations, ppar.iterations);
    }

    #[test]
    fn two_node_graph() {
        // K_2 is bipartite: spectrum {1, -1}, µ = 1
        let g = GraphBuilder::from_edges([(0, 1)]).build();
        let est = Slem::dense(&g).estimate().unwrap();
        assert_close(est.mu, 1.0, 1e-12);
    }
}
