//! Dense symmetric matrices and the cyclic Jacobi eigensolver.
//!
//! O(n³) per sweep, so only for graphs up to a few hundred nodes —
//! this is the *ground truth* the Lanczos and power-iteration paths
//! are property-tested against, not a production path.

use socmix_graph::Graph;

/// A dense symmetric matrix (row-major, square).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix of size `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// From a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n*n`.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        DenseMatrix { n, data }
    }

    /// The dense symmetrized walk matrix `S = D^{-1/2} A D^{-1/2}` of a
    /// graph — the spectrum of `P` in dense form, for cross-checks.
    pub fn symmetric_walk_matrix(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut m = DenseMatrix::zeros(n);
        for (u, v) in g.edges() {
            let w = 1.0 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
            m.set(u as usize, v as usize, w);
            m.set(v as usize, u as usize, w);
        }
        m
    }

    /// The dense row-stochastic walk matrix `P = D⁻¹A` (not
    /// symmetric; useful for brute-force distribution evolution in
    /// tests).
    pub fn walk_matrix(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut m = DenseMatrix::zeros(n);
        for u in g.nodes() {
            let d = g.degree(u);
            if d == 0 {
                continue;
            }
            for &v in g.neighbors(u) {
                m.set(u as usize, v as usize, 1.0 / d as f64);
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// `y = M·x` (allocating).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| crate::vecops::dot(&self.data[i * self.n..(i + 1) * self.n], x))
            .collect()
    }

    /// Row-vector product `y = x·M` (what distribution evolution uses
    /// on the non-symmetric `P`).
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.n..(i + 1) * self.n];
            for (yj, &mij) in y.iter_mut().zip(row) {
                *yj += xi * mij;
            }
        }
        y
    }

    /// Maximum absolute off-diagonal entry.
    fn max_offdiag(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                m = m.max(self.get(i, j).abs());
            }
        }
        m
    }
}

/// Full symmetric eigendecomposition by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted
/// **descending** and `eigenvectors[k]` the unit eigenvector for
/// `eigenvalues[k]`. Every threshold is relative to the matrix's
/// largest absolute entry, so scaling the matrix scales the answer.
///
/// # Panics
///
/// Panics if the matrix is not symmetric (beyond 1e-9 of its largest
/// entry) or Jacobi fails to converge in 100 sweeps (does not happen
/// for symmetric input).
pub fn jacobi_eigen(m: &DenseMatrix) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = m.dim();
    let scale = m.data.iter().fold(0.0f64, |s, x| s.max(x.abs()));
    for i in 0..n {
        for j in (i + 1)..n {
            assert!(
                (m.get(i, j) - m.get(j, i)).abs() <= 1e-9 * scale,
                "jacobi_eigen requires a symmetric matrix"
            );
        }
    }
    let mut a = m.clone();
    // v: accumulated rotations, starts as identity; v[i*n+j] column j
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    // `<=` throughout, so the zero matrix (scale 0) stops at once
    let tol = 1e-13 * scale;
    for _sweep in 0..100 {
        if a.max_offdiag() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() <= tol {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                // tangent of rotation angle, stable formula
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply rotation G(p,q,θ): A ← GᵀAG
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                // accumulate eigenvectors
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    assert!(
        a.max_offdiag() <= 1e-8 * scale,
        "jacobi failed to converge (off-diag {})",
        a.max_offdiag()
    );
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let eigenvectors: Vec<Vec<f64>> = pairs
        .iter()
        .map(|&(_, col)| (0..n).map(|row| v[row * n + col]).collect())
        .collect();
    (eigenvalues, eigenvectors)
}

/// SLEM by dense Jacobi: `µ = max(λ₂, −λₙ)` of the walk matrix.
/// Ground truth for graphs small enough to densify.
pub fn slem_dense(g: &Graph) -> f64 {
    let n = g.num_nodes();
    assert!(n >= 2, "SLEM needs at least two nodes");
    let s = DenseMatrix::symmetric_walk_matrix(g);
    let (vals, _) = jacobi_eigen(&s);
    vals[1].max(-vals[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn jacobi_on_diagonal_matrix() {
        let m = DenseMatrix::from_rows(3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (vals, vecs) = jacobi_eigen(&m);
        assert_close(vals[0], 3.0, 1e-12);
        assert_close(vals[1], 2.0, 1e-12);
        assert_close(vals[2], 1.0, 1e-12);
        // eigenvector for 3.0 is e0
        assert!(vecs[0][0].abs() > 0.999);
    }

    #[test]
    fn jacobi_on_2x2() {
        // [[2,1],[1,2]] → eigenvalues 3, 1
        let m = DenseMatrix::from_rows(2, vec![2.0, 1.0, 1.0, 2.0]);
        let (vals, vecs) = jacobi_eigen(&m);
        assert_close(vals[0], 3.0, 1e-12);
        assert_close(vals[1], 1.0, 1e-12);
        // residual check: Mv = λv
        for k in 0..2 {
            let mv = m.mul_vec(&vecs[k]);
            for i in 0..2 {
                assert_close(mv[i], vals[k] * vecs[k][i], 1e-10);
            }
        }
    }

    #[test]
    fn jacobi_eigenvectors_orthonormal() {
        // random-ish symmetric matrix
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = ((i * 7 + j * 13) % 11) as f64 / 11.0 - 0.4;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let (_, vecs) = jacobi_eigen(&m);
        for a in 0..n {
            for b in a..n {
                let d = crate::vecops::dot(&vecs[a], &vecs[b]);
                let expect = if a == b { 1.0 } else { 0.0 };
                assert_close(d, expect, 1e-9);
            }
        }
    }

    #[test]
    fn jacobi_trace_preserved() {
        let n = 5;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = (((i + 1) * (j + 2)) % 7) as f64;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        let (vals, _) = jacobi_eigen(&m);
        assert_close(vals.iter().sum::<f64>(), trace, 1e-9);
        let (vals, _) = jacobi_eigen(&DenseMatrix::zeros(3));
        assert_eq!(vals, vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn jacobi_rejects_asymmetric() {
        let m = DenseMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 1.0]);
        let _ = jacobi_eigen(&m);
    }

    #[test]
    fn walk_matrix_spectrum_complete_graph() {
        // K_n: eigenvalues of P are 1 and -1/(n-1) (n-1 times)
        let n = 8;
        let mut b = GraphBuilder::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let s = DenseMatrix::symmetric_walk_matrix(&g);
        let (vals, _) = jacobi_eigen(&s);
        assert_close(vals[0], 1.0, 1e-10);
        for &vk in &vals[1..n] {
            assert_close(vk, -1.0 / (n as f64 - 1.0), 1e-10);
        }
        assert_close(slem_dense(&g), 1.0 / (n as f64 - 1.0), 1e-10);
    }

    #[test]
    fn walk_matrix_spectrum_cycle() {
        // C_n: eigenvalues cos(2πk/n)
        let n = 7;
        let g = {
            let mut b = GraphBuilder::new();
            for i in 0..n as u32 {
                b.add_edge(i, (i + 1) % n as u32);
            }
            b.build()
        };
        // spectrum of C_n is cos(2πk/n); for odd n the most negative
        // eigenvalue is −cos(π/n), which dominates cos(2π/n), so
        // µ = cos(π/n)
        let expect_slem = (std::f64::consts::PI / n as f64).cos();
        assert_close(slem_dense(&g), expect_slem, 1e-10);
    }

    #[test]
    fn bipartite_slem_is_one() {
        // K_{3,4}: eigenvalues {1, 0…, -1} → µ = 1
        let g = {
            let mut b = GraphBuilder::new();
            for u in 0..3u32 {
                for v in 0..4u32 {
                    b.add_edge(u, 3 + v);
                }
            }
            b.build()
        };
        assert_close(slem_dense(&g), 1.0, 1e-10);
    }

    #[test]
    fn star_slem_is_one() {
        let g = GraphBuilder::from_edges([(0, 1), (0, 2), (0, 3)]).build();
        assert_close(slem_dense(&g), 1.0, 1e-10);
    }

    #[test]
    fn vec_mul_is_transpose_of_mul_vec() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let p = DenseMatrix::walk_matrix(&g);
        let x = vec![0.1, 0.2, 0.3, 0.4];
        // xP via vec_mul must equal Pᵀx via manual transpose product
        let y = p.vec_mul(&x);
        let mut yt = vec![0.0; 4];
        for (i, &xi) in x.iter().enumerate() {
            for (j, ytj) in yt.iter_mut().enumerate() {
                *ytj += xi * p.get(i, j);
            }
        }
        for (a, b) in y.iter().zip(&yt) {
            assert_close(*a, *b, 1e-14);
        }
    }

    #[test]
    fn dense_walk_rows_are_stochastic() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let p = DenseMatrix::walk_matrix(&g);
        for i in 0..4 {
            let row: f64 = (0..4).map(|j| p.get(i, j)).sum();
            assert_close(row, 1.0, 1e-14);
        }
    }
}
