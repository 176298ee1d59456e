//! Closed-form spectral oracles for the Lanczos drivers and power
//! iteration.
//!
//! Each graph here has a random-walk spectrum known exactly, so the
//! solver is checked against the truth rather than against another
//! solver. The drivers run on the deflated symmetric walk operator,
//! as `Slem::estimate` runs them, and must land within 1e-9 from each
//! of three start seeds. Every converged Lanczos answer must also
//! certify the truth: the closed form lies inside the interval that
//! its error bounds give, up to rounding. A solve starved of steps
//! must say that it is not certified.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix::core::{Slem, SlemEstimate, SlemMethod};
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

/// Rounding allowed at the ends of a certified interval.
const ROUNDING: f64 = 1e-15;

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

/// `got` is within [`TOL`] of the closed form `want`, and `want` lies
/// in the certified interval `[lo, hi]`.
fn assert_certified(what: &str, got: f64, (lo, hi): (f64, f64), want: f64) {
    assert_close(what, got, want);
    assert!(
        lo - ROUNDING <= want && want <= hi + ROUNDING,
        "{what}: closed form {want} outside the certified [{lo}, {hi}]"
    );
}

/// λ₂ of the walk, the deflated operator's largest eigenvalue, in
/// `[top, top + top_bound]`.
fn assert_top(name: &str, r: &LanczosResult, want: f64) {
    let interval = (r.top, r.top + r.top_bound);
    assert_certified(&format!("{name} top"), r.top, interval, want);
}

/// λₙ in `[bottom − bottom_bound, bottom]`.
fn assert_bottom(name: &str, r: &LanczosResult, want: f64) {
    let interval = (r.bottom - r.bottom_bound, r.bottom);
    assert_certified(&format!("{name} bottom"), r.bottom, interval, want);
}

/// µ in a converged `Slem::lanczos` estimate's `[mu, mu_hi]`.
fn assert_mu(name: &str, est: &SlemEstimate, want: f64) {
    assert!(
        est.converged,
        "{name}: not converged after {} steps",
        est.iterations
    );
    let hi = est.mu_hi.expect("Lanczos reports µ_hi");
    assert_certified(&format!("{name} µ"), est.mu, (est.mu, hi), want);
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
    // C_n, n odd: λ_k = cos(2πk/n), each but λ₁ twice; the most
    // negative, −cos(π/n), sets µ. The deflated Krylov space holds
    // one vector per distinct eigenvalue, so it runs out after
    // (n − 1)/2 steps, and C₂₀₁ and C₁₀₀₁ are certified only there.
    for (seed, n, steps) in [(1, 9, None), (11, 201, Some(100)), (31, 1001, Some(500))] {
        let nf = n as f64;
        let name = format!("C{n}");
        for r in deflated_extremes(&cycle(n), seed) {
            assert_top(&name, &r, (2.0 * PI / nf).cos());
            assert_bottom(&name, &r, -(PI / nf).cos());
            if let Some(steps) = steps {
                assert_eq!(r.iterations, steps, "{name}");
            }
        }
        for est in estimates(&cycle(n), SlemMethod::Lanczos, seed) {
            assert_mu(&name, &est, (PI / nf).cos());
        }
    }
}

#[test]
fn starved_solves_are_not_certified() {
    // Eight steps on C₁₀₁, and the default 2,000-step cap on C₁₀₀₀₁,
    // whose extreme eigenvalues are 4e-7 to 6e-7 from the next ones:
    // neither certifies its extremes, and interlacing still keeps the
    // Ritz values inside the spectrum. C₁₀₀₀₁ is checked every 100
    // steps instead of 10: a check only reads the recurrence, so the
    // answer at the cap is the same, and 20 checks of up to 2,000 Ritz
    // values take an eighth of the time of 200.
    let starved = LanczosOptions {
        max_iter: 8,
        ..LanczosOptions::default()
    };
    let capped = LanczosOptions {
        check_every: 100,
        ..LanczosOptions::default()
    };
    for (n, opts) in [(101, starved), (10_001, capped)] {
        let nf = n as f64;
        let g = cycle(n);
        let sop = SymmetricWalkOp::new(&g);
        let basis = vec![sop.top_eigenvector()];
        let defl = DeflatedOp::new(sop, &basis);
        let r = lanczos_extreme(&defl, opts, &mut StdRng::seed_from_u64(n as u64));
        assert!(
            !r.converged,
            "C{n}: certified after {} steps with bounds {:e}, {:e}",
            r.iterations, r.top_bound, r.bottom_bound
        );
        assert_eq!(r.iterations, opts.max_iter, "C{n}");
        assert!(
            r.top <= (2.0 * PI / nf).cos() + ROUNDING,
            "C{n} top {}",
            r.top
        );
        assert!(
            r.bottom >= -(PI / nf).cos() - ROUNDING,
            "C{n} bottom {}",
            r.bottom
        );
    }
}

#[test]
fn even_cycle_extremes() {
    // C₂₀₀: λ_k = cos(2πk/200); bipartite, so the bottom is −1
    for r in deflated_extremes(&cycle(200), 14) {
        assert_top("C200", &r, (2.0 * PI / 200.0).cos());
        assert_bottom("C200", &r, -1.0);
    }
}

#[test]
fn hypercube_q6_extremes() {
    // Q_d: λ = 1 − 2k/d, k = 0..d; deflating k = 0 leaves 1 − 2/d on
    // top and −1 (bipartite) at the bottom; Q₆ and Q₁₀
    for (seed, d) in [(2, 6), (17, 10)] {
        for r in deflated_extremes(&hypercube(d), seed) {
            assert_top(&format!("Q{d}"), &r, 1.0 - 2.0 / f64::from(d));
            assert_bottom(&format!("Q{d}"), &r, -1.0);
        }
    }
}

#[test]
fn petersen_extremes() {
    // adjacency spectrum {3, 1⁵, (−2)⁴}, so the walk's is {1, 1/3, −2/3}
    for r in deflated_extremes(&petersen(), 3) {
        assert_top("Petersen", &r, 1.0 / 3.0);
        assert_bottom("Petersen", &r, -2.0 / 3.0);
    }
}

#[test]
fn complete_bipartite_bottom_is_minus_one() {
    // K₃,₃: walk spectrum {1, 0⁴, −1}. The one-apply start fold drops
    // the start's eigenvalue-0 part, so only the bottom is checked.
    for r in deflated_extremes(&complete_bipartite(3, 3), 4) {
        assert_bottom("K3,3", &r, -1.0);
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
            assert_top(&format!("K{n}"), &r, want);
            assert_bottom(&format!("K{n}"), &r, want);
        }
    }
}

#[test]
fn path_extremes_are_cos_pi_over_n_minus_one_and_minus_one() {
    // P_n: walk eigenvalues cos(πk/(n−1)), k = 0..n−1; bipartite, so
    // the bottom is −1
    for (seed, n) in (40..).step_by(3).zip(SIZES) {
        for r in deflated_extremes(&path(n), seed) {
            assert_top(&format!("P{n}"), &r, (PI / (n - 1) as f64).cos());
            assert_bottom(&format!("P{n}"), &r, -1.0);
        }
    }
}

/// `Slem` estimates with `method` from the start seeds `first_seed`,
/// `first_seed + 1` and `first_seed + 2`.
fn estimates(g: &Graph, method: SlemMethod, first_seed: u64) -> Vec<SlemEstimate> {
    (first_seed..first_seed + 3)
        .map(|seed| {
            Slem::new(g, method)
                .seed(seed)
                .estimate()
                .expect("a connected graph")
        })
        .collect()
}

/// µ = max(λ₂, −λₙ) from the spectra above; bipartite graphs have
/// µ = 1.
fn mu_cases() -> [(&'static str, Graph, f64); 9] {
    [
        ("C9", cycle(9), (PI / 9.0).cos()),
        ("Q6", hypercube(6), 1.0),
        ("Petersen", petersen(), 2.0 / 3.0),
        ("K3,3", complete_bipartite(3, 3), 1.0),
        ("K5", complete(5), 1.0 / 4.0),
        ("K13", complete(13), 1.0 / 12.0),
        ("K100", complete(100), 1.0 / 99.0),
        ("P5", path(5), 1.0),
        ("P13", path(13), 1.0),
    ]
}

#[test]
fn lanczos_mu_interval_holds_the_closed_forms() {
    for (seed, (name, g, mu)) in (70..).step_by(3).zip(mu_cases()) {
        for est in estimates(&g, SlemMethod::Lanczos, seed) {
            assert_mu(name, &est, mu);
        }
    }
}

#[test]
fn power_iteration_mu_matches_closed_forms() {
    for (seed, (name, g, mu)) in (60..).step_by(3).zip(mu_cases()) {
        for est in estimates(&g, SlemMethod::PowerIteration, seed) {
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
        for est in estimates(&g, SlemMethod::PowerIteration, seed) {
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
