//! Closed-form spectral oracles for the Lanczos drivers.
//!
//! Each graph here has a random-walk spectrum known exactly, so the
//! solver is checked against the truth rather than against another
//! solver. The drivers run on the deflated symmetric walk operator,
//! as `Slem::estimate` runs them, and must land within 1e-9.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix::gen::ba::barabasi_albert;
use socmix::gen::fixtures::{complete_bipartite, cycle, petersen};
use socmix::graph::{Graph, GraphBuilder};
use socmix::linalg::vecops::{dot, norm2};
use socmix::linalg::{
    lanczos_extreme, lanczos_topk, DeflatedOp, LanczosOptions, LanczosResult, SymmetricWalkOp,
};

const TOL: f64 = 1e-9;

/// Lanczos extremes of the walk operator with λ₁ = 1 deflated.
fn deflated_extremes(g: &Graph, seed: u64) -> LanczosResult {
    let sop = SymmetricWalkOp::new(g);
    let basis = vec![sop.top_eigenvector()];
    let defl = DeflatedOp::new(sop, &basis);
    let r = lanczos_extreme(
        &defl,
        LanczosOptions::default(),
        &mut StdRng::seed_from_u64(seed),
    );
    assert!(r.converged, "not converged after {} steps", r.iterations);
    r
}

fn assert_close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "{what}: {got} vs closed form {want} (off by {:.3e})",
        (got - want).abs()
    );
}

/// The d-dimensional hypercube: walk eigenvalues 1 − 2k/d.
fn hypercube(d: u32) -> Graph {
    let mut b = GraphBuilder::new();
    for v in 0..1u32 << d {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

#[test]
fn odd_cycle_slem_is_cos_pi_over_n() {
    // C₉: λ_k = cos(2πk/9); the most negative, −cos(π/9), sets µ
    let r = deflated_extremes(&cycle(9), 1);
    assert_close(
        "C9 µ",
        r.top.max(-r.bottom),
        (std::f64::consts::PI / 9.0).cos(),
    );
}

#[test]
fn hypercube_q6_extremes() {
    // Q₆: λ = 1 − 2k/6, k = 0..6; deflating k = 0 leaves 2/3 on top
    // and −1 (bipartite) at the bottom
    let r = deflated_extremes(&hypercube(6), 2);
    assert_close("Q6 top", r.top, 2.0 / 3.0);
    assert_close("Q6 bottom", r.bottom, -1.0);
}

#[test]
fn petersen_extremes() {
    // adjacency spectrum {3, 1⁵, (−2)⁴}, so the walk's is {1, 1/3, −2/3}
    let r = deflated_extremes(&petersen(), 3);
    assert_close("Petersen top", r.top, 1.0 / 3.0);
    assert_close("Petersen bottom", r.bottom, -2.0 / 3.0);
}

#[test]
fn complete_bipartite_bottom_is_minus_one() {
    // K₃,₃: walk spectrum {1, 0⁴, −1}
    let r = deflated_extremes(&complete_bipartite(3, 3), 4);
    assert_close("K3,3 bottom", r.bottom, -1.0);
}

#[test]
fn topk_ritz_vectors_stay_orthogonal_on_a_long_run() {
    let g = barabasi_albert(2_000, 3, &mut StdRng::seed_from_u64(5));
    assert!(g.num_nodes() >= 2_000);
    let op = SymmetricWalkOp::new(&g);
    let k = 8;
    // tol 0 never passes, so the basis grows to max_iter: 120 steps
    let opts = LanczosOptions {
        max_iter: 120,
        tol: 0.0,
        check_every: 10,
    };
    let r = lanczos_topk(&op, k, opts, &mut StdRng::seed_from_u64(6));
    assert!(r.iterations >= 100, "only {} steps", r.iterations);
    assert_eq!(r.vectors.len(), k);
    assert_close("top Ritz value", r.values[0], 1.0);
    for (a, va) in r.vectors.iter().enumerate() {
        assert!((norm2(va) - 1.0).abs() <= 1e-12, "vector {a} not unit");
        for (b, vb) in r.vectors.iter().enumerate().skip(a + 1) {
            let overlap = dot(va, vb).abs();
            assert!(overlap <= 1e-10, "vectors {a} and {b}: |dot| {overlap:.3e}");
        }
    }
}
