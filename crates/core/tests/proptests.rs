//! Property tests for the measurement core: bound coherence, probe
//! consistency, aggregation sanity.

use proptest::prelude::*;
use socmix_core::aggregate::{band_curves, mean_curve, percentile_curve, Cdf, PAPER_BANDS};
use socmix_core::average::{average_mixing_time, coverage_mixing_time};
use socmix_core::{MixingBounds, MixingProbe, Slem};
use socmix_graph::{GraphBuilder, NodeId};

fn connected_nonbipartite(max_n: usize) -> impl Strategy<Value = socmix_graph::Graph> {
    (
        4usize..=max_n,
        proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..30),
    )
        .prop_flat_map(|(n, extra)| {
            proptest::collection::vec(0u64..u64::MAX, n - 1).prop_map(move |tree| {
                let mut b = GraphBuilder::new();
                for (v, pick) in tree.iter().enumerate() {
                    let v = (v + 1) as NodeId;
                    b.add_edge((pick % v as u64) as NodeId, v);
                }
                for &(x, y) in &extra {
                    let u = (x % n as u64) as NodeId;
                    let v = (y % n as u64) as NodeId;
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.add_edge(0, 1);
                b.add_edge(1, 2);
                b.add_edge(0, 2);
                b.build()
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bound coherence for arbitrary (µ, n, ε).
    #[test]
    fn bounds_coherent(mu in 0.0f64..0.9999, n in 2usize..1_000_000, eps in 1e-6f64..0.49) {
        let b = MixingBounds::new(mu, n);
        let (lo, hi) = b.at_epsilon(eps);
        prop_assert!(lo >= 0.0);
        prop_assert!(hi >= lo);
        // inversion identity
        if lo > 0.0 {
            let back = b.epsilon_at_lower(lo);
            prop_assert!((back - eps).abs() / eps < 1e-6);
        }
    }

    /// The exact mixing time obeys both sides of the Theorem-2
    /// envelope on real graphs, the lower side with no slack: every
    /// source is evolved exactly, so T(ε) is the worst case that
    /// Sinclair's lower bound holds for.
    #[test]
    fn sampled_time_below_upper_bound(g in connected_nonbipartite(20)) {
        let est = Slem::dense(&g).estimate().unwrap();
        if est.mu >= 0.999999 {
            return Ok(()); // degenerate (should not happen: triangle)
        }
        let b = MixingBounds::new(est.mu, g.num_nodes());
        let probe = MixingProbe::new(&g);
        let series = probe.all_sources(b.upper(0.01).ceil() as usize + 5);
        for eps in [0.25, 0.05, 0.01] {
            let t = series.mixing_time(eps);
            prop_assert!(t.is_some(), "must mix within the upper bound at ε = {}", eps);
            let t = t.unwrap() as f64;
            prop_assert!(t <= b.upper(eps).ceil() + 1.0, "ε = {}: T = {} above upper", eps, t);
            prop_assert!(b.lower(eps) <= t, "ε = {}: T = {} below lower {}", eps, t, b.lower(eps));
        }
    }

    /// Aggregation sanity: bands are ordered, the mean sits between
    /// the extreme bands, percentiles are monotone in rank.
    #[test]
    fn aggregation_ordering(g in connected_nonbipartite(16), t_max in 5usize..25) {
        let probe = MixingProbe::new(&g);
        let r = probe.all_sources(t_max);
        let bands = band_curves(&r, &PAPER_BANDS);
        let mean = mean_curve(&r);
        let p50 = percentile_curve(&r, 0.5);
        let p99 = percentile_curve(&r, 0.99);
        for t in 0..t_max {
            prop_assert!(bands[0].epsilon[t] <= bands[2].epsilon[t] + 1e-12);
            prop_assert!(p50[t] <= p99[t] + 1e-12);
            prop_assert!(mean[t] >= bands[0].epsilon[t] - 1e-12);
            prop_assert!(mean[t] <= bands[2].epsilon[t] + 1e-12);
        }
    }

    /// Average-case times interpolate: avg ≤ worst; coverage is
    /// monotone in q and tops out at the worst case.
    #[test]
    fn average_case_interpolates(g in connected_nonbipartite(16)) {
        let probe = MixingProbe::new(&g);
        let r = probe.all_sources(4000);
        let eps = 0.05;
        let worst = r.mixing_time(eps);
        prop_assume!(worst.is_some());
        let worst = worst.unwrap();
        let avg = average_mixing_time(&r, eps).unwrap();
        prop_assert!(avg <= worst);
        let mut last = 0usize;
        for q in [0.25, 0.5, 0.75, 1.0] {
            let c = coverage_mixing_time(&r, eps, q).unwrap();
            prop_assert!(c >= last);
            last = c;
        }
        prop_assert_eq!(last, worst);
    }

    /// The batched probe agrees with the serial per-source path:
    /// identical series at any block size, and identical Definition-1
    /// mixing times even with early retirement on.
    #[test]
    fn batched_mixing_time_matches_serial(g in connected_nonbipartite(18), block in 2usize..9) {
        let t_max = 600;
        let eps = 0.05;
        let serial = MixingProbe::new(&g).block_size(1).all_sources(t_max);
        let batched = MixingProbe::new(&g).block_size(block).all_sources(t_max);
        prop_assert_eq!(&batched.series, &serial.series);
        let retired = MixingProbe::new(&g)
            .block_size(block)
            .retire_at(eps)
            .all_sources(t_max);
        prop_assert_eq!(retired.mixing_time(eps), serial.mixing_time(eps));
        prop_assert_eq!(retired.times_to_epsilon(eps), serial.times_to_epsilon(eps));
    }

    /// CDF quantiles are inverse-consistent with the CDF.
    #[test]
    fn cdf_quantile_consistency(samples in proptest::collection::vec(0.0f64..1.0, 1..60), q in 0.01f64..1.0) {
        let cdf = Cdf::from_samples(samples);
        let x = cdf.quantile(q);
        prop_assert!(cdf.at(x) >= q - 1e-12);
    }
}
