//! Property tests for the eigensolver stack: random matrices, random
//! graphs, closed-form spectra.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_graph::{GraphBuilder, NodeId};
use socmix_linalg::dense::{jacobi_eigen, slem_dense, DenseMatrix};
use socmix_linalg::tridiag::{tridiag_eigen, tridiag_eigen_last_row, tridiag_eigenvalues};
use socmix_linalg::{lanczos_extreme, DeflatedOp, LanczosOptions, LinearOp, SymmetricWalkOp};

fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = DenseMatrix> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |vals| {
            let mut m = DenseMatrix::zeros(n);
            let mut k = 0;
            for i in 0..n {
                for j in i..n {
                    m.set(i, j, vals[k]);
                    m.set(j, i, vals[k]);
                    k += 1;
                }
            }
            m
        })
    })
}

/// Random symmetric tridiagonals `(diag, offdiag)` of size 1–300, a
/// quarter of them at most 8. In half of them about a quarter of the
/// off-diagonals are exactly zero, so the matrix splits into blocks;
/// the other half are unreduced. Most diagonal entries come from three
/// fixed values, so runs of repeated entries (and eigenvalues repeated
/// across blocks) are common.
fn tridiagonal() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0u32..4, 1usize..=300, 0u32..2).prop_flat_map(|(small, n, split)| {
        let n = if small == 0 { n % 8 + 1 } else { n };
        let entry = || (0u32..4, -2.0f64..2.0);
        (
            proptest::collection::vec(entry(), n),
            proptest::collection::vec(entry(), n - 1),
        )
            .prop_map(move |(d, e)| {
                let diag = d
                    .into_iter()
                    .map(|(pick, x)| if pick == 0 { x } else { f64::from(pick) * 0.5 })
                    .collect();
                let offdiag = e
                    .into_iter()
                    .map(|(pick, x)| if pick == 0 && split == 1 { 0.0 } else { x })
                    .collect();
                (diag, offdiag)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tridiag_last_row_is_bit_identical_to_full((d, e) in tridiagonal()) {
        let (vals, vecs) = tridiag_eigen(&d, &e);
        let (last_vals, last) = tridiag_eigen_last_row(&d, &e);
        let n = d.len();
        prop_assert_eq!(last_vals.len(), n);
        prop_assert_eq!(last.len(), n);
        for k in 0..n {
            prop_assert_eq!(last_vals[k].to_bits(), vals[k].to_bits());
            prop_assert_eq!(last[k].to_bits(), vecs[k][n - 1].to_bits());
        }
    }

    #[test]
    fn jacobi_reconstructs_matrix(m in symmetric_matrix(8)) {
        // Σ λ_k v_k v_kᵀ == M
        let n = m.dim();
        let (vals, vecs) = jacobi_eigen(&m);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += vals[k] * vecs[k][i] * vecs[k][j];
                }
                prop_assert!((acc - m.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn jacobi_values_sorted_descending(m in symmetric_matrix(10)) {
        let (vals, _) = jacobi_eigen(&m);
        prop_assert!(vals.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn tridiag_matches_jacobi(
        d in proptest::collection::vec(-2.0f64..2.0, 2..10),
        raw_e in proptest::collection::vec(-2.0f64..2.0, 9)
    ) {
        let n = d.len();
        let e = &raw_e[..n - 1];
        let tv = tridiag_eigenvalues(&d, e);
        let mut m = DenseMatrix::zeros(n);
        for (i, &di) in d.iter().enumerate() {
            m.set(i, i, di);
        }
        for (i, &ei) in e.iter().enumerate() {
            m.set(i, i + 1, ei);
            m.set(i + 1, i, ei);
        }
        let (jv, _) = jacobi_eigen(&m);
        for (a, b) in tv.iter().zip(&jv) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn tridiag_eigenvectors_unit_norm(
        d in proptest::collection::vec(-2.0f64..2.0, 2..8),
        raw_e in proptest::collection::vec(-2.0f64..2.0, 7)
    ) {
        let n = d.len();
        let (_, vecs) = tridiag_eigen(&d, &raw_e[..n - 1]);
        for v in vecs {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lanczos_slem_matches_dense_on_random_graphs(
        tree_picks in proptest::collection::vec(0u64..u64::MAX, 4..30),
        extra in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..40)
    ) {
        let n = tree_picks.len() + 1;
        let mut b = GraphBuilder::new();
        for (v, pick) in tree_picks.iter().enumerate() {
            let v = (v + 1) as NodeId;
            b.add_edge((pick % v as u64) as NodeId, v);
        }
        for (x, y) in extra {
            let u = (x % n as u64) as NodeId;
            let v = (y % n as u64) as NodeId;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let expect = slem_dense(&g);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let mut rng = StdRng::seed_from_u64(1);
        let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
        let mu = r.top.max(-r.bottom);
        prop_assert!((mu - expect).abs() < 1e-6, "lanczos {mu} vs dense {expect}");
    }

    #[test]
    fn symmetric_walk_operator_norm_at_most_one(
        tree_picks in proptest::collection::vec(0u64..u64::MAX, 3..20)
    ) {
        // ‖S x‖ ≤ ‖x‖ for the normalized adjacency of any graph
        let n = tree_picks.len() + 1;
        let mut b = GraphBuilder::new();
        for (v, pick) in tree_picks.iter().enumerate() {
            let v = (v + 1) as NodeId;
            b.add_edge((pick % v as u64) as NodeId, v);
        }
        let g = b.build();
        let op = SymmetricWalkOp::new(&g);
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 11) as f64 - 5.0).collect();
        let y = op.apply_vec(&x);
        let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(ny <= nx + 1e-9);
    }
}
