//! Symmetric tridiagonal eigensolver (QL with implicit shifts).
//!
//! This is the inner solver Lanczos uses on its projected matrix
//! `T_k`. Classic EISPACK `tql2` algorithm. The eigenvalues alone take
//! O(k²): a few O(k) rotation sweeps per eigenvalue. Applying every
//! rotation to every row of the eigenvector matrix makes the full
//! decomposition O(k³), which is not trivial at Lanczos basis sizes:
//! at k ≈ 170, running it every tenth step cost 40–51 ms of a ~600 ms
//! SLEM solve on a 2-vCPU host (EXPERIMENTS.md). A convergence check
//! needs only the last row of the eigenvector matrix (the Ritz
//! residual is `|β_k · s_{k,i}|`), so [`tridiag_eigen_last_row`]
//! applies the rotations to that one row and stays O(k²).
//!
//! The rotations take `sqrt(a² + b²)` rather than libm's `hypot`, which
//! guards against overflow at nearly twice the cost: the 17 checks of a
//! 170-step SLEM solve took 5.0 ms instead of 8.4 (EXPERIMENTS.md). So
//! entries are expected well inside the f64 range, with magnitudes
//! between about 1e-150 and 1e150, where no square overflows or
//! underflows. Lanczos tridiagonals of operators with norm at most 1
//! are.

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal
/// `diag` and subdiagonal `offdiag` (`offdiag.len() == diag.len()-1`),
/// sorted **descending**.
pub fn tridiag_eigenvalues(diag: &[f64], offdiag: &[f64]) -> Vec<f64> {
    let (vals, _) = ql_implicit(diag, offdiag, Rows::None);
    vals
}

/// Full eigendecomposition of a symmetric tridiagonal matrix.
///
/// Returns `(values, vectors)` with values sorted **descending** and
/// `vectors[k]` the unit eigenvector (length `n`) for `values[k]`.
pub fn tridiag_eigen(diag: &[f64], offdiag: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let (vals, z) = ql_implicit(diag, offdiag, Rows::All);
    let vecs = z.chunks_exact(vals.len()).map(<[f64]>::to_vec).collect();
    (vals, vecs)
}

/// Eigenvalues and the last row of the eigenvector matrix of a
/// symmetric tridiagonal matrix, in O(n²).
///
/// Returns `(values, last)` with values sorted **descending** and
/// `last[k]` the last entry of the unit eigenvector for `values[k]`.
/// Both are bit-identical to what [`tridiag_eigen`] returns: the QL
/// rotations act on each row of the eigenvector matrix independently,
/// so this applies the same operations to the one row it keeps.
pub fn tridiag_eigen_last_row(diag: &[f64], offdiag: &[f64]) -> (Vec<f64>, Vec<f64>) {
    ql_implicit(diag, offdiag, Rows::Last)
}

/// Which rows of the eigenvector matrix [`ql_implicit`] accumulates.
#[derive(Clone, Copy)]
enum Rows {
    None,
    Last,
    All,
}

/// QL with implicit shifts, accumulating the rotations into the rows
/// of the eigenvector matrix that `rows` selects. Returns the sorted
/// values and the kept rows' entries column by column (eigenvector
/// `j`'s entries are `z[j * kept .. (j + 1) * kept]`).
fn ql_implicit(diag: &[f64], offdiag: &[f64], rows: Rows) -> (Vec<f64>, Vec<f64>) {
    let n = diag.len();
    assert!(n > 0, "empty matrix");
    assert_eq!(offdiag.len(), n - 1, "offdiag must have n-1 entries");
    let mut d = diag.to_vec();
    // e: subdiagonal padded with trailing 0 (e[i] couples i and i+1)
    let mut e = offdiag.to_vec();
    e.push(0.0);
    // z[r*n + j]: kept row r, column j (columns are eigenvectors),
    // starting as the matching rows of the identity
    let kept = match rows {
        Rows::None => 0,
        Rows::Last => 1,
        Rows::All => n,
    };
    let first_row = n - kept;
    let mut z = vec![0.0f64; kept * n];
    for r in 0..kept {
        z[r * n + first_row + r] = 1.0;
    }

    for l in 0..n {
        let mut iter = 0;
        loop {
            // find the first negligible subdiagonal at or after l
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 64, "QL failed to converge at row {l}");
            // implicit shift from the 2x2 at l
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // recover from underflow: deflate and restart row
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for row in z.chunks_exact_mut(n) {
                    f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // sort descending, permuting eigenvector columns alongside
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let z = &z;
    let columns = order
        .iter()
        .flat_map(|&col| (0..kept).map(move |r| z[r * n + col]))
        .collect();
    (values, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigen, DenseMatrix};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn single_element() {
        let (vals, vecs) = tridiag_eigen(&[5.0], &[]);
        assert_eq!(vals, vec![5.0]);
        assert_eq!(vecs, vec![vec![1.0]]);
    }

    #[test]
    fn diagonal_matrix() {
        let vals = tridiag_eigenvalues(&[1.0, 4.0, 2.0], &[0.0, 0.0]);
        assert_eq!(vals, vec![4.0, 2.0, 1.0]);
    }

    #[test]
    fn two_by_two() {
        // [[2,1],[1,2]] → 3, 1
        let (vals, vecs) = tridiag_eigen(&[2.0, 2.0], &[1.0]);
        assert_close(vals[0], 3.0, 1e-12);
        assert_close(vals[1], 1.0, 1e-12);
        // eigenvector for 3: (1,1)/√2 up to sign
        assert_close(vecs[0][0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-12);
    }

    #[test]
    fn known_toeplitz_spectrum() {
        // Tridiagonal Toeplitz with diag a=0, offdiag b=1, size n:
        // eigenvalues 2·cos(kπ/(n+1)), k=1..n
        let n = 12;
        let d = vec![0.0; n];
        let e = vec![1.0; n - 1];
        let vals = tridiag_eigenvalues(&d, &e);
        for (k, &v) in vals.iter().enumerate() {
            let expect = 2.0 * ((k as f64 + 1.0) * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert_close(v, expect, 1e-10);
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let d = vec![1.0, -0.5, 2.0, 0.3, -1.2];
        let e = vec![0.7, 0.2, -0.9, 0.4];
        let (vals, vecs) = tridiag_eigen(&d, &e);
        let n = d.len();
        for k in 0..n {
            // T v = λ v componentwise
            let v = &vecs[k];
            for i in 0..n {
                let mut tv = d[i] * v[i];
                if i > 0 {
                    tv += e[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv += e[i] * v[i + 1];
                }
                assert_close(tv, vals[k] * v[i], 1e-10);
            }
            // unit norm
            assert_close(crate::vecops::norm2(v), 1.0, 1e-10);
        }
    }

    #[test]
    fn agrees_with_jacobi() {
        let d = vec![0.3, 1.1, -0.7, 0.0, 2.2, -1.5];
        let e = vec![0.5, -0.25, 0.8, 0.1, -0.6];
        // also with entries far from 1 in both directions, whose
        // squares stay inside the f64 range
        for scale in [1.0, 1e-100, 1e100] {
            let scaled = |x: &[f64]| x.iter().map(|v| v * scale).collect::<Vec<_>>();
            let (d, e) = (scaled(&d), scaled(&e));
            let mut m = DenseMatrix::zeros(d.len());
            for (i, &di) in d.iter().enumerate() {
                m.set(i, i, di);
            }
            for (i, &ei) in e.iter().enumerate() {
                m.set(i, i + 1, ei);
                m.set(i + 1, i, ei);
            }
            let (jv, _) = jacobi_eigen(&m);
            let tv = tridiag_eigenvalues(&d, &e);
            for (a, b) in jv.iter().zip(&tv) {
                assert!(
                    (a - b).abs() < 1e-10 * scale,
                    "{a:e} vs {b:e} at scale {scale:e}"
                );
            }
        }
    }

    #[test]
    fn trace_and_frobenius_preserved() {
        let d = vec![2.0, -1.0, 0.5, 3.0];
        let e = vec![1.0, 0.3, -2.0];
        let vals = tridiag_eigenvalues(&d, &e);
        let trace: f64 = d.iter().sum();
        assert_close(vals.iter().sum::<f64>(), trace, 1e-10);
        let frob2: f64 =
            d.iter().map(|x| x * x).sum::<f64>() + 2.0 * e.iter().map(|x| x * x).sum::<f64>();
        assert_close(vals.iter().map(|x| x * x).sum::<f64>(), frob2, 1e-10);
    }

    #[test]
    #[should_panic]
    fn wrong_offdiag_length_rejected() {
        let _ = tridiag_eigenvalues(&[1.0, 2.0], &[0.1, 0.2]);
    }
}
