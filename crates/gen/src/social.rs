//! Calibrated community-structured social-graph generator.
//!
//! The paper's central observation is that acquaintance networks
//! (co-authorship, email) mix slowly because they contain sparse cuts
//! between tightly knit communities, while interaction-driven online
//! networks mix fast. This generator makes that knob explicit:
//! [`SocialParams::inter_fraction`] is the expected fraction of a
//! node's edges that leave its community, and it controls the
//! conductance — and hence, through `Φ ≥ 1−µ`, the SLEM — almost
//! directly. The catalog tunes it per dataset class.

use crate::chunglu::{chung_lu, powerlaw_weights};
use crate::connect::ensure_connected;
use rand::Rng;
use socmix_graph::{Graph, GraphBuilder, NodeId};

/// Parameters of the community-structured social-graph model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialParams {
    /// Total node count.
    pub nodes: usize,
    /// Target average degree (`2m/n`).
    pub avg_degree: f64,
    /// Expected community size; the node set is split into
    /// `⌈nodes / community_size⌉` groups.
    pub community_size: usize,
    /// Expected fraction of edge endpoints that cross communities
    /// (0 = disconnected islands before repair, →1 = no community
    /// structure).
    pub inter_fraction: f64,
    /// Power-law exponent of intra-community degree weights (γ > 2).
    pub gamma: f64,
}

impl SocialParams {
    /// Generates a connected instance of the model.
    ///
    /// Pipeline: Chung–Lu power-law graph inside each community at
    /// degree `avg_degree·(1−inter_fraction)`, then
    /// `n·avg_degree·inter_fraction/2` inter-community edges between
    /// uniformly random nodes of distinct communities, then
    /// connectivity repair ([`ensure_connected`]).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        assert!(self.nodes >= 2, "need at least 2 nodes");
        assert!(self.avg_degree > 0.0);
        assert!(
            self.community_size >= 2,
            "communities need at least 2 nodes"
        );
        assert!((0.0..=1.0).contains(&self.inter_fraction));
        let n = self.nodes;
        let k = n.div_ceil(self.community_size);
        // communities = contiguous id ranges (sizes differ by ≤1)
        let bounds: Vec<usize> = (0..=k).map(|i| i * n / k).collect();

        let mut b = GraphBuilder::new();
        b.grow_to(n);

        // Intra-community Chung–Lu with power-law weights.
        let d_intra = self.avg_degree * (1.0 - self.inter_fraction);
        for c in 0..k {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            let size = hi - lo;
            if size < 2 || d_intra <= 0.0 {
                continue;
            }
            // cap the target degree below size-1 so min(1,·) clipping
            // in Chung–Lu doesn't starve small communities
            let d = d_intra.min((size - 1) as f64 * 0.9);
            let weights = powerlaw_weights(size, self.gamma, d);
            let sub = chung_lu(&weights, rng);
            for (u, v) in sub.edges() {
                b.add_edge((lo + u as usize) as NodeId, (lo + v as usize) as NodeId);
            }
        }

        // Inter-community edges: uniform random cross pairs.
        let target_inter =
            (n as f64 * self.avg_degree * self.inter_fraction / 2.0).round() as usize;
        let community_of = |v: usize| -> usize {
            // bounds is sorted; k is small relative to n so binary search
            match bounds.binary_search(&v) {
                Ok(i) => i.min(k - 1),
                Err(i) => i - 1,
            }
        };
        let mut added = 0usize;
        let mut attempts = 0usize;
        let max_attempts = target_inter.saturating_mul(50).max(1000);
        while added < target_inter && attempts < max_attempts {
            attempts += 1;
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u == v || community_of(u) == community_of(v) {
                continue;
            }
            b.add_edge(u as NodeId, v as NodeId);
            added += 1;
        }

        ensure_connected(b.build(), rng)
    }
}

/// Parameters of the co-authorship (affiliation) model.
///
/// Collaboration networks are unions of *paper cliques*: every
/// publication links all of its authors pairwise. That structure —
/// not matched by edge-probability models like Chung–Lu — is what
/// gives DBLP its paradoxical shape: average degree below 4, yet a
/// 5-core holding a quarter of the graph (the paper's Figure 6 trims
/// against exactly that core). This model reproduces it directly:
/// power-law-sized groups, preferentially chosen members (prolific
/// authors join many groups), each group a clique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoauthorshipParams {
    /// Total node count (authors).
    pub nodes: usize,
    /// Expected group memberships per node (papers per author);
    /// controls density together with the group-size distribution.
    pub groups_per_node: f64,
    /// Power-law exponent of group sizes `P(s) ∝ s^(−α)`, `s ≥ 2`.
    pub size_alpha: f64,
    /// Largest group size.
    pub max_group: usize,
    /// Power-law exponent of the per-node membership weights
    /// (prolific-author skew); > 2 keeps the mean finite.
    pub author_gamma: f64,
    /// Size of a topical community; each paper has a home community
    /// and draws its authors there. Communities are what make real
    /// co-authorship graphs slow mixers.
    pub community_size: usize,
    /// Probability that an individual author slot is filled from the
    /// whole graph instead of the home community — the conductance
    /// knob (0 = isolated topics, 1 = no community structure).
    pub crossover: f64,
}

impl CoauthorshipParams {
    /// Generates a connected co-authorship graph.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        assert!(self.nodes >= 3);
        assert!(self.groups_per_node > 0.0);
        assert!(self.size_alpha > 1.0, "group sizes need \u{3b1} > 1");
        assert!(self.max_group >= 2);
        assert!(self.community_size >= 2);
        assert!((0.0..=1.0).contains(&self.crossover));
        let n = self.nodes;
        let k = n.div_ceil(self.community_size);
        let bounds: Vec<usize> = (0..=k).map(|i| i * n / k).collect();
        // membership weights: prolific authors join more groups; the
        // weight ordering is scattered by a fixed stride so hubs land
        // in every community, not just the first ids
        let raw = powerlaw_weights(n, self.author_gamma, 1.0);
        let mut weights = vec![0.0f64; n];
        for (i, w) in raw.into_iter().enumerate() {
            weights[(i.wrapping_mul(2_654_435_761).wrapping_add(11)) % n] = w;
        }
        let cum: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        // weight-proportional draw within the id range [lo, hi)
        let pick_in = |rng: &mut R, lo: usize, hi: usize| -> usize {
            let base = if lo == 0 { 0.0 } else { cum[lo - 1] };
            let top = cum[hi - 1];
            let x = base + rng.random::<f64>() * (top - base);
            cum.partition_point(|&c| c < x).clamp(lo, hi - 1)
        };
        let target_memberships = (n as f64 * self.groups_per_node).round() as usize;
        let mut b = GraphBuilder::new();
        b.grow_to(n);
        let mut memberships = 0usize;
        let mut members: Vec<NodeId> = Vec::new();
        while memberships < target_memberships {
            let s = sample_powerlaw_size(2, self.max_group, self.size_alpha, rng);
            // home community of this paper, weight-proportional
            let home = {
                let v = pick_in(rng, 0, n);
                bounds.partition_point(|&bb| bb <= v) - 1
            };
            let (lo, hi) = (bounds[home], bounds[home + 1]);
            members.clear();
            let mut guard = 0;
            while members.len() < s && guard < 50 * s {
                guard += 1;
                let v = if rng.random::<f64>() < self.crossover {
                    pick_in(rng, 0, n) as NodeId
                } else {
                    pick_in(rng, lo, hi) as NodeId
                };
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    b.add_edge(members[i], members[j]);
                }
            }
            memberships += members.len();
        }
        ensure_connected(b.build(), rng)
    }
}

/// Samples from a truncated discrete power law `P(s) ∝ s^(−α)` on
/// `[lo, hi]` by inverse transform on the continuous envelope.
fn sample_powerlaw_size<R: Rng + ?Sized>(lo: usize, hi: usize, alpha: f64, rng: &mut R) -> usize {
    debug_assert!(lo >= 1 && hi >= lo && alpha > 1.0);
    let (a, b) = (lo as f64, hi as f64 + 1.0);
    let e = 1.0 - alpha;
    let u: f64 = rng.random();
    let x = ((b.powf(e) - a.powf(e)) * u + a.powf(e)).powf(1.0 / e);
    (x.floor() as usize).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::components::is_connected;

    fn params(inter: f64) -> SocialParams {
        SocialParams {
            nodes: 1000,
            avg_degree: 10.0,
            community_size: 25,
            inter_fraction: inter,
            gamma: 2.7,
        }
    }

    fn coauth(crossover: f64) -> CoauthorshipParams {
        CoauthorshipParams {
            nodes: 2000,
            groups_per_node: 1.2,
            size_alpha: 2.5,
            max_group: 30,
            author_gamma: 2.5,
            community_size: 50,
            crossover,
        }
    }

    #[test]
    fn coauthorship_connected_and_sized() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = coauth(0.05).generate(&mut rng);
        assert_eq!(g.num_nodes(), 2000);
        assert!(is_connected(&g));
    }

    #[test]
    fn coauthorship_has_nontrivial_core() {
        // the property Chung-Lu misses: paper cliques create a dense
        // core even at low average degree
        let mut rng = StdRng::seed_from_u64(1);
        let g = coauth(0.02).generate(&mut rng);
        let core = socmix_graph::trim::core_numbers(&g);
        let deep = core.iter().filter(|&&c| c >= 4).count();
        assert!(
            deep * 20 > g.num_nodes(),
            "expected >5% of nodes in the 4-core, got {}/{} (avg deg {:.2})",
            deep,
            g.num_nodes(),
            g.avg_degree()
        );
    }

    #[test]
    fn coauthorship_high_transitivity() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = coauth(0.0).generate(&mut rng);
        let t = socmix_graph::stats::graph_stats(&g).transitivity;
        // hub authors sit in many cliques, creating open wedges that
        // dilute global transitivity; ~0.27 matches real co-authorship
        assert!(t > 0.2, "clique unions should be clustered, got {t}");
    }

    #[test]
    fn coauthorship_deterministic() {
        let a = coauth(0.05).generate(&mut StdRng::seed_from_u64(9));
        let b = coauth(0.05).generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn coauthorship_crossover_moves_cut_edges() {
        let count_cross = |g: &Graph| {
            g.edges()
                .filter(|&(u, v)| (u as usize / 50) != (v as usize / 50))
                .count()
        };
        let closed = coauth(0.01).generate(&mut StdRng::seed_from_u64(5));
        let open = coauth(0.5).generate(&mut StdRng::seed_from_u64(5));
        assert!(
            count_cross(&open) > 3 * count_cross(&closed),
            "crossover should control cross-community edges"
        );
    }

    #[test]
    fn powerlaw_size_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let s = sample_powerlaw_size(2, 30, 2.5, &mut rng);
            assert!((2..=30).contains(&s));
        }
    }

    #[test]
    fn powerlaw_size_favors_small() {
        let mut rng = StdRng::seed_from_u64(4);
        let draws: Vec<usize> = (0..5000)
            .map(|_| sample_powerlaw_size(2, 50, 2.5, &mut rng))
            .collect();
        let small = draws.iter().filter(|&&s| s <= 4).count();
        assert!(small * 2 > draws.len(), "most groups should be small");
    }

    #[test]
    fn generates_connected_graph() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = params(0.05).generate(&mut rng);
        assert_eq!(g.num_nodes(), 1000);
        assert!(is_connected(&g));
    }

    #[test]
    fn density_near_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = params(0.1).generate(&mut rng);
        let avg = g.avg_degree();
        assert!(
            (avg - 10.0).abs() < 3.0,
            "average degree {avg} too far from target 10"
        );
    }

    #[test]
    fn inter_fraction_controls_cross_edges() {
        let mut rng = StdRng::seed_from_u64(2);
        let count_cross = |g: &Graph, size: usize| {
            g.edges()
                .filter(|&(u, v)| (u as usize / size) != (v as usize / size))
                .count()
        };
        let lo = params(0.01).generate(&mut rng);
        let hi = params(0.30).generate(&mut rng);
        // community boundaries are at multiples of 25 here (1000/40)
        let (cl, ch) = (count_cross(&lo, 25), count_cross(&hi, 25));
        assert!(
            ch > 5 * cl,
            "cross-community edges should grow with inter_fraction: {cl} vs {ch}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = params(0.05).generate(&mut StdRng::seed_from_u64(9));
        let b = params(0.05).generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_communities_still_work() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = SocialParams {
            nodes: 100,
            avg_degree: 3.0,
            community_size: 2,
            inter_fraction: 0.2,
            gamma: 2.5,
        }
        .generate(&mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn zero_inter_fraction_still_connected_after_repair() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = params(0.0).generate(&mut rng);
        assert!(is_connected(&g), "repair must connect isolated communities");
    }

    #[test]
    fn heavy_tail_inside_communities() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = SocialParams {
            nodes: 3000,
            avg_degree: 12.0,
            community_size: 300,
            inter_fraction: 0.05,
            gamma: 2.3,
        }
        .generate(&mut rng);
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
    }
}
