//! Matrix-free linear operators over a CSR graph.
//!
//! Operator applications are the hot path of every measurement in the
//! workspace, so they are engineered to be **allocation-free**: the
//! per-apply scratch (the `z` scale vector of [`WalkOp`] and
//! [`SymmetricWalkOp`], the projected input copy of [`DeflatedOp`])
//! comes from the reusable per-thread pool in [`crate::workspace`],
//! and row chunks are scheduled on `socmix-par`'s persistent worker
//! runtime — no thread spawns, no steady-state heap traffic per
//! apply.

use crate::vecops;
use crate::workspace::with_scratch;
use socmix_graph::Graph;
use socmix_obs::Counter;
use socmix_par::Pool;

/// Sparse walk-operator applications (serial kernels; the batched
/// kernel counts separately under `linalg.matvec.multi`).
static MATVECS: Counter = Counter::new("linalg.matvec");

/// A (square) linear operator applied matrix-free.
///
/// Operators over graphs never materialize a matrix; `apply` computes
/// `y = Op·x` in O(m) with one gather pass over the CSR arrays.
pub trait LinearOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = Op · x`. Both slices have length [`LinearOp::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Convenience allocating wrapper around [`LinearOp::apply`].
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

/// The row-stochastic random-walk operator `P = D⁻¹A`, applied as
/// `y = xP` (distribution evolution, row-vector convention):
/// `y[j] = Σ_{i ∼ j} x[i] / deg(i)`.
///
/// Note `P` is *not* symmetric; its left-multiplication is what
/// distribution evolution needs and what this operator computes.
/// For eigenvalue work use [`SymmetricWalkOp`] (same spectrum).
pub struct WalkOp<'g> {
    graph: &'g Graph,
    pool: Pool,
    /// scratch: z[i] = x[i] / deg(i)
    inv_deg: Vec<f64>,
}

impl<'g> WalkOp<'g> {
    /// Wraps a graph. Nodes of degree 0 contribute nothing (their
    /// probability mass is dropped — callers should pass connected
    /// graphs, as the mixing time requires).
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_pool(graph, Pool::new())
    }

    /// As [`WalkOp::new`] with an explicit thread pool.
    pub fn with_pool(graph: &'g Graph, pool: Pool) -> Self {
        let inv_deg = (0..graph.num_nodes())
            .map(|v| {
                let d = graph.degree(v as u32);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            })
            .collect();
        WalkOp {
            graph,
            pool,
            inv_deg,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The precomputed `1/deg(v)` table (0 for isolated nodes).
    pub fn inv_degrees(&self) -> &[f64] {
        &self.inv_deg
    }

    /// The pool this operator schedules row chunks on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }
}

impl LinearOp for WalkOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        MATVECS.incr();
        let n = self.dim();
        // z[i] = x[i]/deg(i), then gather: y[j] = Σ_{i∼j} z[i].
        // z lives in the reusable per-thread workspace: no allocation
        // per apply once the pool is warm.
        with_scratch(n, |z| {
            for ((zi, xi), inv) in z.iter_mut().zip(x).zip(&self.inv_deg) {
                *zi = xi * inv;
            }
            let g = self.graph;
            let offsets = g.offsets();
            let targets = g.raw_targets();
            let zref = &*z;
            // Parallel write without locks: each chunk gets its own
            // rows of y.
            self.pool.for_each_chunk(y, 1, |range, ys| {
                for (yj, j) in ys.iter_mut().zip(range) {
                    let mut acc = 0.0;
                    for &i in &targets[offsets[j]..offsets[j + 1]] {
                        acc += zref[i as usize];
                    }
                    *yj = acc;
                }
            });
        });
    }
}

/// The symmetric normalization `S = D^{-1/2} A D^{-1/2}`.
///
/// `S = D^{1/2} P D^{-1/2}` is similar to `P`, so it has the same
/// (real) spectrum, and being symmetric it is what Lanczos and Jacobi
/// operate on. Its top eigenvector is known in closed form:
/// `u₁ ∝ D^{1/2} 𝟙` (see [`SymmetricWalkOp::top_eigenvector`]).
pub struct SymmetricWalkOp<'g> {
    graph: &'g Graph,
    pool: Pool,
    inv_sqrt_deg: Vec<f64>,
}

impl<'g> SymmetricWalkOp<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_pool(graph, Pool::new())
    }

    /// As [`SymmetricWalkOp::new`] with an explicit thread pool.
    pub fn with_pool(graph: &'g Graph, pool: Pool) -> Self {
        let inv_sqrt_deg = (0..graph.num_nodes())
            .map(|v| {
                let d = graph.degree(v as u32);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        SymmetricWalkOp {
            graph,
            pool,
            inv_sqrt_deg,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The unit eigenvector of `S` for λ₁ = 1: `D^{1/2}𝟙 / ‖D^{1/2}𝟙‖`,
    /// i.e. `u₁[v] = √deg(v) / √(2m)`.
    pub fn top_eigenvector(&self) -> Vec<f64> {
        let total = self.graph.total_degree() as f64;
        (0..self.graph.num_nodes())
            .map(|v| (self.graph.degree(v as u32) as f64 / total).sqrt())
            .collect()
    }
}

impl LinearOp for SymmetricWalkOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        MATVECS.incr();
        let n = self.dim();
        // y[i] = (1/√deg i) Σ_{j∼i} x[j]/√deg j — z reused from the
        // per-thread workspace like the plain walk kernel.
        with_scratch(n, |z| {
            for ((zi, xi), inv) in z.iter_mut().zip(x).zip(&self.inv_sqrt_deg) {
                *zi = xi * inv;
            }
            let g = self.graph;
            let offsets = g.offsets();
            let targets = g.raw_targets();
            let zref = &*z;
            let inv = &self.inv_sqrt_deg;
            self.pool.for_each_chunk(y, 1, |range, ys| {
                for (yi, i) in ys.iter_mut().zip(range) {
                    let mut acc = 0.0;
                    for &j in &targets[offsets[i]..offsets[i + 1]] {
                        acc += zref[j as usize];
                    }
                    *yi = acc * inv[i];
                }
            });
        });
    }
}

/// The lazy variant `(I + Op) / 2`.
///
/// Shifts the spectrum to `[0, 1]`, killing periodicity: the lazy walk
/// on a bipartite graph still converges. Used when the Markov layer
/// detects bipartiteness.
pub struct LazyOp<Op> {
    inner: Op,
}

impl<Op: LinearOp> LazyOp<Op> {
    /// Wraps an operator.
    pub fn new(inner: Op) -> Self {
        LazyOp { inner }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &Op {
        &self.inner
    }
}

impl<Op: LinearOp> LinearOp for LazyOp<Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = 0.5 * (*yi + xi);
        }
    }
}

/// Deflation wrapper: applies `Op` restricted to the orthogonal
/// complement of a set of known *unit* eigenvectors.
///
/// Both the input and the output are projected, so iterating this
/// operator converges to the extreme eigenvalues of the complement —
/// for [`SymmetricWalkOp`] with `u₁` deflated, that is exactly
/// `λ₂` (top) and `λₙ` (bottom), the two ingredients of the SLEM.
pub struct DeflatedOp<'a, Op> {
    inner: Op,
    basis: &'a [Vec<f64>],
}

impl<'a, Op: LinearOp> DeflatedOp<'a, Op> {
    /// Wraps `inner`, deflating the span of `basis` (each vector must
    /// be unit-norm; vectors should be mutually orthogonal).
    pub fn new(inner: Op, basis: &'a [Vec<f64>]) -> Self {
        for b in basis {
            debug_assert_eq!(b.len(), inner.dim());
            debug_assert!((vecops::norm2(b) - 1.0).abs() < 1e-8, "basis must be unit");
        }
        DeflatedOp { inner, basis }
    }

    /// Projects `x` onto the orthogonal complement of the basis.
    pub fn project(&self, x: &mut [f64]) {
        for b in self.basis {
            vecops::project_out(x, b);
        }
    }
}

impl<Op: LinearOp> LinearOp for DeflatedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // The projected input copy comes from the per-thread
        // workspace; the nested inner apply checks out its own buffer.
        with_scratch(x.len(), |xp| {
            xp.copy_from_slice(x);
            self.project(xp);
            self.inner.apply(xp, y);
        });
        self.project(y);
    }
}

/// A dense operator for tests and small cross-checks.
pub struct DenseOp {
    /// Row-major `n×n`.
    pub data: Vec<f64>,
    pub n: usize,
}

impl LinearOp for DenseOp {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate().take(self.n) {
            *yi = vecops::dot(&self.data[i * self.n..(i + 1) * self.n], x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::{dot, norm2};
    use socmix_graph::GraphBuilder;

    fn path3() -> Graph {
        GraphBuilder::from_edges([(0, 1), (1, 2)]).build()
    }

    #[test]
    fn walk_op_preserves_probability_mass() {
        let g = path3();
        let op = WalkOp::new(&g);
        let x = vec![0.2, 0.5, 0.3];
        let y = op.apply_vec(&x);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn walk_op_path_step() {
        let g = path3();
        let op = WalkOp::new(&g);
        // start at node 0: all mass moves to node 1
        let y = op.apply_vec(&[1.0, 0.0, 0.0]);
        assert_eq!(y, vec![0.0, 1.0, 0.0]);
        // start at node 1: splits to 0 and 2
        let y = op.apply_vec(&[0.0, 1.0, 0.0]);
        assert!((y[0] - 0.5).abs() < 1e-15 && (y[2] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn stationary_is_fixed_point_of_walk_op() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
        let op = WalkOp::new(&g);
        let total = g.total_degree() as f64;
        let pi: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64 / total).collect();
        let y = op.apply_vec(&pi);
        for (a, b) in y.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-14, "πP ≠ π");
        }
    }

    #[test]
    fn symmetric_op_is_symmetric() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).build();
        let op = SymmetricWalkOp::new(&g);
        let n = op.dim();
        // check <Sx, y> == <x, Sy> for a few vector pairs
        for k in 0..3 {
            let x: Vec<f64> = (0..n).map(|i| ((i + k) as f64).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| ((2 * i + k) as f64).cos()).collect();
            let sx = op.apply_vec(&x);
            let sy = op.apply_vec(&y);
            assert!((dot(&sx, &y) - dot(&x, &sy)).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_op_top_eigenvector_is_fixed() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]).build();
        let op = SymmetricWalkOp::new(&g);
        let u1 = op.top_eigenvector();
        assert!((norm2(&u1) - 1.0).abs() < 1e-12);
        let y = op.apply_vec(&u1);
        for (a, b) in y.iter().zip(&u1) {
            assert!((a - b).abs() < 1e-12, "S·u₁ ≠ u₁");
        }
    }

    #[test]
    fn lazy_op_halves_spectrum() {
        let g = path3();
        let op = LazyOp::new(WalkOp::new(&g));
        // lazy step from node 0: half stays, half moves to 1
        let y = op.apply_vec(&[1.0, 0.0, 0.0]);
        assert!((y[0] - 0.5).abs() < 1e-15);
        assert!((y[1] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn deflated_op_annihilates_basis() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0)]).build();
        let op = SymmetricWalkOp::new(&g);
        let basis = vec![op.top_eigenvector()];
        let defl = DeflatedOp::new(SymmetricWalkOp::new(&g), &basis);
        let y = defl.apply_vec(&basis[0]);
        assert!(norm2(&y) < 1e-12, "deflated operator must kill u₁");
    }

    #[test]
    fn deflated_output_is_orthogonal_to_basis() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).build();
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let x: Vec<f64> = (0..g.num_nodes()).map(|i| (i as f64) - 1.7).collect();
        let y = defl.apply_vec(&x);
        assert!(dot(&y, &basis[0]).abs() < 1e-12);
    }

    #[test]
    fn dense_op_matches_manual() {
        let op = DenseOp {
            data: vec![1.0, 2.0, 3.0, 4.0],
            n: 2,
        };
        assert_eq!(op.apply_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn walk_op_handles_isolated_nodes() {
        let mut b = GraphBuilder::from_edges([(0, 1)]);
        b.grow_to(3);
        let g = b.build();
        let op = WalkOp::new(&g);
        let y = op.apply_vec(&[0.0, 0.0, 1.0]);
        // isolated node's mass is dropped, not NaN
        assert!(y.iter().all(|v| v.is_finite()));
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }
}
