//! Closed-form spectral oracles for the Lanczos drivers and power
//! iteration.
//!
//! Each graph here has a random-walk spectrum known exactly, so the
//! solver is checked against the truth rather than against another
//! solver. The drivers run on the deflated symmetric walk operator,
//! as `Slem::estimate` runs them, and must land within 1e-9 from each
//! of three start seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix::core::{Slem, SlemEstimate};
use socmix::gen::ba::barabasi_albert;
use socmix::gen::fixtures::{complete, complete_bipartite, cycle, path, petersen};
use socmix::graph::{Graph, GraphBuilder};
use socmix::linalg::vecops::{dot, norm2};
use socmix::linalg::{
    lanczos_extreme, lanczos_topk, DeflatedOp, LanczosOptions, LanczosResult, PowerOptions,
    SymmetricWalkOp,
};
use std::f64::consts::PI;

const TOL: f64 = 1e-9;

/// Lanczos extremes of the walk operator with λ₁ = 1 deflated, from
/// the start seeds `first_seed`, `first_seed + 1` and `first_seed + 2`.
fn deflated_extremes(g: &Graph, first_seed: u64) -> Vec<LanczosResult> {
    let sop = SymmetricWalkOp::new(g);
    let basis = vec![sop.top_eigenvector()];
    let defl = DeflatedOp::new(sop, &basis);
    (first_seed..first_seed + 3)
        .map(|seed| {
            let r = lanczos_extreme(
                &defl,
                LanczosOptions::default(),
                &mut StdRng::seed_from_u64(seed),
            );
            assert!(
                r.converged,
                "seed {seed}: not converged after {} steps",
                r.iterations
            );
            r
        })
        .collect()
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
    // C_n, n odd: λ_k = cos(2πk/n); the most negative, −cos(π/n),
    // sets µ
    for (seed, n) in [(1, 9), (11, 201)] {
        for r in deflated_extremes(&cycle(n), seed) {
            let nf = n as f64;
            assert_close(&format!("C{n} top"), r.top, (2.0 * PI / nf).cos());
            assert_close(&format!("C{n} bottom"), r.bottom, -(PI / nf).cos());
            assert_close(&format!("C{n} µ"), r.top.max(-r.bottom), (PI / nf).cos());
        }
    }
}

#[test]
fn even_cycle_extremes() {
    // C₂₀₀: λ_k = cos(2πk/200); bipartite, so the bottom is −1
    for r in deflated_extremes(&cycle(200), 14) {
        assert_close("C200 top", r.top, (2.0 * PI / 200.0).cos());
        assert_close("C200 bottom", r.bottom, -1.0);
    }
}

#[test]
fn hypercube_q6_extremes() {
    // Q_d: λ = 1 − 2k/d, k = 0..d; deflating k = 0 leaves 1 − 2/d on
    // top and −1 (bipartite) at the bottom; Q₆ and Q₁₀
    for (seed, d) in [(2, 6), (17, 10)] {
        for r in deflated_extremes(&hypercube(d), seed) {
            assert_close(&format!("Q{d} top"), r.top, 1.0 - 2.0 / f64::from(d));
            assert_close(&format!("Q{d} bottom"), r.bottom, -1.0);
        }
    }
}

#[test]
fn petersen_extremes() {
    // adjacency spectrum {3, 1⁵, (−2)⁴}, so the walk's is {1, 1/3, −2/3}
    for r in deflated_extremes(&petersen(), 3) {
        assert_close("Petersen top", r.top, 1.0 / 3.0);
        assert_close("Petersen bottom", r.bottom, -2.0 / 3.0);
    }
}

#[test]
fn complete_bipartite_bottom_is_minus_one() {
    // K₃,₃: walk spectrum {1, 0⁴, −1}. The one-apply start fold drops
    // the start's eigenvalue-0 part, so only the bottom is checked.
    for r in deflated_extremes(&complete_bipartite(3, 3), 4) {
        assert_close("K3,3 bottom", r.bottom, -1.0);
    }
}

/// Sizes for the families below: three where the deflated Krylov
/// space runs out within a check or two, and one where it takes
/// about a hundred steps.
const SIZES: [usize; 4] = [5, 9, 13, 100];

#[test]
fn complete_graph_deflates_to_one_eigenvalue() {
    // K_n: walk spectrum {1, (−1/(n−1))^(n−1)}, so the deflated
    // operator is −1/(n−1) times the identity on its range
    for (seed, n) in (20..).step_by(3).zip(SIZES) {
        for r in deflated_extremes(&complete(n), seed) {
            let want = -1.0 / (n - 1) as f64;
            assert_close(&format!("K{n} top"), r.top, want);
            assert_close(&format!("K{n} bottom"), r.bottom, want);
        }
    }
}

#[test]
fn path_extremes_are_cos_pi_over_n_minus_one_and_minus_one() {
    // P_n: walk eigenvalues cos(πk/(n−1)), k = 0..n−1; bipartite, so
    // the bottom is −1
    for (seed, n) in (40..).step_by(3).zip(SIZES) {
        for r in deflated_extremes(&path(n), seed) {
            let top = (PI / (n - 1) as f64).cos();
            assert_close(&format!("P{n} top"), r.top, top);
            assert_close(&format!("P{n} bottom"), r.bottom, -1.0);
        }
    }
}

/// `Slem::power_iteration` estimates from the start seeds
/// `first_seed`, `first_seed + 1` and `first_seed + 2`.
fn power_estimates(g: &Graph, first_seed: u64) -> Vec<SlemEstimate> {
    (first_seed..first_seed + 3)
        .map(|seed| {
            Slem::power_iteration(g)
                .seed(seed)
                .estimate()
                .expect("a connected graph")
        })
        .collect()
}

#[test]
fn power_iteration_mu_matches_closed_forms() {
    // µ = max(λ₂, −λₙ) from the spectra above; bipartite graphs have
    // µ = 1
    let cases = [
        ("C9", cycle(9), (PI / 9.0).cos()),
        ("Q6", hypercube(6), 1.0),
        ("Petersen", petersen(), 2.0 / 3.0),
        ("K3,3", complete_bipartite(3, 3), 1.0),
        ("K5", complete(5), 1.0 / 4.0),
        ("K13", complete(13), 1.0 / 12.0),
        ("K100", complete(100), 1.0 / 99.0),
        ("P5", path(5), 1.0),
        ("P13", path(13), 1.0),
    ];
    for (seed, (name, g, mu)) in (60..).step_by(3).zip(cases) {
        for est in power_estimates(&g, seed) {
            assert!(
                est.converged,
                "{name}: not converged after {} iterations",
                est.iterations
            );
            assert_close(&format!("{name} power µ"), est.mu, mu);
        }
    }
}

#[test]
fn power_iteration_reports_unconverged_and_low_at_its_cap() {
    // C₂₀₁ and P₁₀₀ have their two largest |λ| too close for the
    // geometric rate to reach the tolerance within the iteration cap;
    // what power returns there must say so and must not overshoot µ
    let cases = [
        ("C201", cycle(201), (PI / 201.0).cos()),
        ("P100", path(100), 1.0),
    ];
    let cap = PowerOptions::default().max_iter;
    for (seed, (name, g, mu)) in (90..).step_by(3).zip(cases) {
        for est in power_estimates(&g, seed) {
            assert!(!est.converged, "{name}: converged, µ {}", est.mu);
            assert_eq!(est.iterations, cap, "{name}");
            assert!(
                est.mu <= mu + 1e-12,
                "{name}: µ {} above the closed form {mu}",
                est.mu
            );
        }
    }
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
