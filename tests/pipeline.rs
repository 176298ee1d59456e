//! End-to-end pipeline tests: the paper's preprocessing →
//! measurement chain, spanning every crate through the facade.

use socmix::core::{MixingBounds, MixingProbe, Slem};
use socmix::gen::{fixtures, Dataset};
use socmix::graph::{components, io, GraphBuilder};
use socmix::linalg::LanczosOptions;
use socmix::markov::{ergodicity, stationary_distribution, total_variation};

/// The full paper pipeline on a catalog dataset: generate →
/// (already-connected) LCC → SLEM → bounds → sampled probe, with the
/// two methods consistent.
#[test]
fn full_pipeline_on_physics_standin() {
    let g = Dataset::Physics1.generate(0.1, 3);
    let (lcc, _) = components::largest_component(&g);
    assert_eq!(
        lcc.num_nodes(),
        g.num_nodes(),
        "catalog graphs are connected"
    );

    let est = Slem::lanczos(&lcc).estimate().unwrap();
    assert!(est.mu > 0.9 && est.mu < 1.0, "slow class: µ = {}", est.mu);

    let bounds = MixingBounds::new(est.mu, lcc.num_nodes());
    let probe = MixingProbe::new(&lcc).auto_kernel();
    let result = probe.probe_random_sources(60, 4_000, 3);
    let eps = 0.05;
    let sampled = result
        .mixing_time(eps)
        .expect("4000 steps should suffice at this scale");
    // Theorem 2: the lower bound must not exceed the true mixing
    // time; the sampled value over a subset of sources can be
    // slightly below the max over *all* sources, so allow slack on
    // the boundary only through flooring.
    assert!(
        (sampled as f64) >= bounds.lower(eps).floor() * 0.5,
        "sampled {} vs lower bound {}",
        sampled,
        bounds.lower(eps)
    );
    assert!(
        (sampled as f64) <= bounds.upper(eps).ceil() * 2.0,
        "sampled {} vs upper bound {}",
        sampled,
        bounds.upper(eps)
    );
}

/// Text edge-list round trip through disk, then measurement on the
/// reloaded graph gives identical results.
#[test]
fn io_roundtrip_preserves_measurements() {
    let g = Dataset::WikiVote.generate(0.05, 9);
    let dir = std::env::temp_dir().join("socmix-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wiki.edges");
    io::save_edge_list(&g, &path).unwrap();
    let g2 = io::load_edge_list(&path).unwrap();
    assert_eq!(g, g2);
    let mu1 = Slem::lanczos(&g).estimate().unwrap().mu;
    let mu2 = Slem::lanczos(&g2).estimate().unwrap().mu;
    assert!((mu1 - mu2).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Directed input symmetrization: loading a directed edge list gives
/// the same graph the paper's directed→undirected conversion does.
#[test]
fn directed_input_is_symmetrized() {
    let text = "0 1\n1 2\n2 0\n2 3\n3 2\n";
    let g = io::read_edge_list(text.as_bytes()).unwrap();
    assert_eq!(g.num_edges(), 4);
    assert!(g.has_edge(3, 2));
    assert!(ergodicity(&g).connected);
}

/// The two SLEM backends agree on every catalog class at small scale.
#[test]
fn slem_backends_agree_on_catalog() {
    for ds in [Dataset::WikiVote, Dataset::Physics3, Dataset::Youtube] {
        let g = ds.generate(0.02, 5);
        let l = Slem::lanczos(&g).estimate().unwrap().mu;
        let p = Slem::power_iteration(&g).estimate().unwrap().mu;
        assert!((l - p).abs() < 1e-4, "{ds}: lanczos {l} vs power {p}");
    }
}

/// The automatic backend converges on the 20k-node DBLP stand-in,
/// whose solve takes more steps than the old 300-vector basis held.
#[test]
fn auto_slem_converges_on_dblp_standin() {
    let ds = Dataset::Dblp;
    let g = ds.generate(20_000.0 / ds.paper_nodes() as f64, 1);
    let (lcc, _) = components::largest_component(&g);
    let est = Slem::auto(&lcc).estimate().unwrap();
    assert!(
        est.converged,
        "not converged after {} steps (µ {})",
        est.iterations, est.mu
    );
    assert!(est.mu > 0.99 && est.mu < 1.0, "µ = {}", est.mu);
}

/// The certified stop on Physics 2 at paper scale (11,204 nodes, the
/// benchmark's graph): each extreme Ritz value's Kato–Temple bound
/// falls below the tolerance within 140 steps, where a test of the
/// residuals alone took 160–170, and µ is settled to 1e-9 there.
#[test]
fn certified_stop_settles_mu_on_physics2_within_140_steps() {
    let g = Dataset::Physics2.generate(1.0, 7);
    let reference = Slem::auto(&g)
        .seed(0)
        .lanczos_options(LanczosOptions {
            max_iter: 250,
            tol: 0.0,
            ..LanczosOptions::default()
        })
        .estimate()
        .unwrap();
    assert_eq!(reference.iterations, 250);
    for seed in 1..=3 {
        let est = Slem::auto(&g).seed(seed).estimate().unwrap();
        assert!(
            est.converged && est.iterations <= 140,
            "seed {seed}: converged {} after {} steps",
            est.converged,
            est.iterations
        );
        let gap = (est.mu - reference.mu).abs();
        assert!(gap <= 1e-9, "seed {seed}: µ {} off by {gap:.3e}", est.mu);
    }
}

/// Exact evolution and the stationary distribution close the loop:
/// evolving π is a fixpoint, and evolving anything else converges to
/// π on a non-bipartite connected graph.
#[test]
fn evolution_fixpoint_and_convergence() {
    let g = fixtures::petersen();
    let pi = stationary_distribution(&g);
    let probe = MixingProbe::new(&g);
    let t = probe.time_to_epsilon(0, 1e-9, 500).unwrap();
    assert!(t < 200, "petersen mixes in tens of steps, took {t}");
    // π itself never moves
    let e = socmix::markov::Evolver::new(&g);
    let mut x = pi.clone();
    e.step(&mut x);
    assert!(total_variation(&x, &pi) < 1e-14);
}

/// Disconnected graphs are rejected exactly where the paper requires
/// the LCC extraction.
#[test]
fn disconnected_rejected_until_lcc() {
    let mut b = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2)]);
    b.add_edge(10, 11);
    let g = b.build();
    assert!(Slem::lanczos(&g).estimate().is_err());
    let (lcc, _) = components::largest_component(&g);
    assert!(Slem::lanczos(&lcc).estimate().is_ok());
}
