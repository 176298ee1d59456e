//! Hierarchical community graphs.
//!
//! Real social crawls are *hierarchically* modular: people sit in
//! tight groups, groups in looser clusters, clusters in weakly
//! coupled regions. That nesting is why the paper's Figure 7 sees
//! larger BFS samples mix more slowly — a bigger sample spans higher
//! (and sparser) levels of the hierarchy, so µ grows with the sample
//! size. Flat community models ([`crate::social::SocialParams`])
//! cannot show that effect: their spectral gap is set by the
//! leaf-level cut alone and is scale-invariant.
//!
//! This model makes the nesting explicit: leaves of `leaf_size`
//! nodes, grouped recursively by `branching` into ever-larger blocks.
//! A node's cross-community edges choose a level with geometrically
//! decaying probability (`decay` per level), and connect uniformly
//! within the chosen ancestor block but outside the lower one.

use crate::chunglu::{chung_lu, powerlaw_weights};
use crate::connect::ensure_connected;
use rand::Rng;
use socmix_graph::{Graph, GraphBuilder, NodeId};

/// Parameters of the hierarchical community model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyParams {
    /// Total node count.
    pub nodes: usize,
    /// Target average degree.
    pub avg_degree: f64,
    /// Bottom-level community size.
    pub leaf_size: usize,
    /// Blocks per super-block at each level (≥ 2).
    pub branching: usize,
    /// Fraction of edge endpoints that leave the leaf community.
    pub inter_fraction: f64,
    /// Per-level geometric decay of crossing-edge probability: a
    /// crossing edge targets level `ℓ ∈ 1..=L` with weight
    /// `decay^(ℓ−1)` (normalized). Smaller `decay` concentrates
    /// crossings at low levels, making high levels very sparse —
    /// and large samples very slow.
    pub decay: f64,
    /// Power-law exponent of intra-leaf degree weights (γ > 2).
    pub gamma: f64,
}

impl HierarchyParams {
    /// Number of hierarchy levels above the leaves needed to cover
    /// `nodes` (level `L` blocks have `leaf_size · branchingᴸ`
    /// nodes).
    pub fn levels(&self) -> usize {
        let mut block = self.leaf_size;
        let mut l = 0usize;
        while block < self.nodes {
            block = block.saturating_mul(self.branching);
            l += 1;
        }
        l.max(1)
    }

    /// Generates a connected instance.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        assert!(self.nodes >= 4);
        assert!(self.avg_degree > 0.0);
        assert!(self.leaf_size >= 2);
        assert!(self.branching >= 2);
        assert!((0.0..=1.0).contains(&self.inter_fraction));
        assert!(self.decay > 0.0 && self.decay <= 1.0);
        let n = self.nodes;
        let mut b = GraphBuilder::new();
        b.grow_to(n);

        // intra-leaf Chung–Lu, as in the flat model
        let d_intra = self.avg_degree * (1.0 - self.inter_fraction);
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + self.leaf_size).min(n);
            let size = hi - lo;
            if size >= 2 && d_intra > 0.0 {
                let d = d_intra.min((size - 1) as f64 * 0.9);
                let weights = powerlaw_weights(size, self.gamma, d);
                let sub = chung_lu(&weights, rng);
                for (u, v) in sub.edges() {
                    b.add_edge((lo + u as usize) as NodeId, (lo + v as usize) as NodeId);
                }
            }
            lo = hi;
        }

        // crossing edges with geometric level choice
        let levels = self.levels();
        let level_weights: Vec<f64> = (0..levels).map(|l| self.decay.powi(l as i32)).collect();
        let wsum: f64 = level_weights.iter().sum();
        let target = (n as f64 * self.avg_degree * self.inter_fraction / 2.0).round() as usize;
        // block size at level ℓ (ℓ = 0 is the leaf)
        let block_size = |l: usize| -> usize {
            self.leaf_size
                .saturating_mul(self.branching.saturating_pow(l as u32))
                .min(n)
        };
        let mut added = 0usize;
        let mut attempts = 0usize;
        let max_attempts = target.saturating_mul(60).max(1000);
        while added < target && attempts < max_attempts {
            attempts += 1;
            let u = rng.random_range(0..n);
            // pick target level 1..=levels
            let mut x = rng.random::<f64>() * wsum;
            let mut level = 1usize;
            for (l, w) in level_weights.iter().enumerate() {
                if x < *w {
                    level = l + 1;
                    break;
                }
                x -= w;
            }
            let outer = block_size(level);
            let inner = block_size(level - 1);
            let outer_lo = (u / outer) * outer;
            let outer_hi = (outer_lo + outer).min(n);
            if outer_hi - outer_lo <= inner {
                continue; // block truncated at the boundary; retry
            }
            let v = outer_lo + rng.random_range(0..outer_hi - outer_lo);
            // must leave the level-(ℓ−1) block
            if v / inner == u / inner || v == u {
                continue;
            }
            b.add_edge(u as NodeId, v as NodeId);
            added += 1;
        }
        ensure_connected(b.build(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::components::is_connected;

    fn params(n: usize) -> HierarchyParams {
        HierarchyParams {
            nodes: n,
            avg_degree: 12.0,
            leaf_size: 50,
            branching: 4,
            inter_fraction: 0.05,
            decay: 0.35,
            gamma: 2.5,
        }
    }

    #[test]
    fn levels_cover_node_count() {
        let p = params(50 * 4 * 4 * 4);
        assert_eq!(p.levels(), 3);
        let p2 = params(50 * 4 * 4 * 4 + 1);
        assert_eq!(p2.levels(), 4);
        let tiny = params(40);
        assert_eq!(tiny.levels(), 1);
    }

    #[test]
    fn generates_connected_graph() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = params(3000).generate(&mut rng);
        assert_eq!(g.num_nodes(), 3000);
        assert!(is_connected(&g));
    }

    #[test]
    fn density_near_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = params(4000).generate(&mut rng);
        let avg = g.avg_degree();
        assert!((avg - 12.0).abs() < 4.0, "avg degree {avg}");
    }

    #[test]
    fn crossing_edges_respect_hierarchy() {
        // with decay << 1, most crossings are level-1 (within the
        // same super-block of branching·leaf_size nodes)
        let mut rng = StdRng::seed_from_u64(2);
        let p = params(3200);
        let g = p.generate(&mut rng);
        let leaf = p.leaf_size;
        let sup = p.leaf_size * p.branching;
        let mut level1 = 0usize;
        let mut higher = 0usize;
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            if u / leaf == v / leaf {
                continue; // intra-leaf
            }
            if u / sup == v / sup {
                level1 += 1;
            } else {
                higher += 1;
            }
        }
        assert!(
            level1 > higher,
            "level-1 crossings ({level1}) should dominate higher ones ({higher})"
        );
        assert!(higher > 0, "some high-level crossings must exist");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = params(1000).generate(&mut StdRng::seed_from_u64(5));
        let b = params(1000).generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn deeper_hierarchies_mix_slower() {
        // the property this model exists for: µ grows with node count
        // (more levels spanned), unlike the flat community model
        use socmix_linalg::{lanczos_extreme, DeflatedOp, LanczosOptions, SymmetricWalkOp};
        let mu_of = |n: usize| {
            let g = params(n).generate(&mut StdRng::seed_from_u64(3));
            let sop = SymmetricWalkOp::new(&g);
            let basis = vec![sop.top_eigenvector()];
            let defl = DeflatedOp::new(sop, &basis);
            let mut rng = StdRng::seed_from_u64(4);
            let r = lanczos_extreme(&defl, LanczosOptions::default(), &mut rng);
            r.top.max(-r.bottom)
        };
        let small = mu_of(800); // 1–2 levels
        let large = mu_of(12_800); // 4+ levels
        assert!(
            large > small,
            "bigger hierarchy should mix slower: {small} vs {large}"
        );
    }
}
