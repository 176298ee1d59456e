//! Connectivity repair for random generators.
//!
//! Sparse random graphs can come out disconnected; the catalog
//! guarantees connected stand-ins (the paper always measures on the
//! LCC anyway) by patching components together with a minimal number
//! of random edges.

use rand::Rng;
use socmix_graph::components::connected_components;
use socmix_graph::{Graph, GraphBuilder};

/// Returns a connected graph by adding one random edge from each
/// non-largest component to a random node of the largest component.
///
/// Adds exactly `num_components − 1` edges (none if already connected:
/// `g` comes back unchanged), preserving every existing edge. Degree-1
/// attachment points are chosen uniformly, so the patch is spectrally
/// negligible at catalog densities.
pub fn ensure_connected<R: Rng + ?Sized>(g: Graph, rng: &mut R) -> Graph {
    let comps = connected_components(&g);
    if comps.count() <= 1 {
        return g;
    }
    let big = comps.largest();
    let members = comps.member_lists();
    let big_members = members.of(big);
    let mut b = GraphBuilder::with_capacity(g.num_edges() + comps.count());
    b.grow_to(g.num_nodes());
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for c in 0..comps.count() as u32 {
        if c == big {
            continue;
        }
        let small = members.of(c);
        let from = small[rng.random_range(0..small.len())];
        let to = big_members[rng.random_range(0..big_members.len())];
        b.add_edge(from, to);
    }
    b.build()
}

/// Like [`ensure_connected`] but attaches components in a random
/// chain (comp1→comp2→…), which produces a path-like macro structure
/// instead of a hub-like one. Useful for worst-case mixing fixtures.
pub fn ensure_connected_chain<R: Rng + ?Sized>(g: Graph, rng: &mut R) -> Graph {
    let comps = connected_components(&g);
    if comps.count() <= 1 {
        return g;
    }
    let mut b = GraphBuilder::with_capacity(g.num_edges() + comps.count());
    b.grow_to(g.num_nodes());
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    let members = comps.member_lists();
    for c in 1..comps.count() as u32 {
        let (prev, cur) = (members.of(c - 1), members.of(c));
        let from = prev[rng.random_range(0..prev.len())];
        let to = cur[rng.random_range(0..cur.len())];
        b.add_edge(from, to);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::components::is_connected;

    fn three_triangles() -> Graph {
        let mut b = GraphBuilder::new();
        for c in 0..3u32 {
            let base = c * 3;
            b.add_edge(base, base + 1);
            b.add_edge(base + 1, base + 2);
            b.add_edge(base, base + 2);
        }
        b.build()
    }

    #[test]
    fn patches_to_connected() {
        let g = three_triangles();
        let mut rng = StdRng::seed_from_u64(0);
        let fixed = ensure_connected(g.clone(), &mut rng);
        assert!(is_connected(&fixed));
        assert_eq!(fixed.num_edges(), g.num_edges() + 2);
    }

    #[test]
    fn already_connected_is_identity() {
        let g = crate::fixtures::cycle(10);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(ensure_connected(g.clone(), &mut rng), g);
        assert_eq!(ensure_connected_chain(g.clone(), &mut rng), g);
    }

    #[test]
    fn chain_patches_to_connected() {
        let g = three_triangles();
        let mut rng = StdRng::seed_from_u64(1);
        let fixed = ensure_connected_chain(g.clone(), &mut rng);
        assert!(is_connected(&fixed));
        assert_eq!(fixed.num_edges(), g.num_edges() + 2);
    }

    #[test]
    fn isolated_nodes_get_attached() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.grow_to(5);
        let mut rng = StdRng::seed_from_u64(2);
        let fixed = ensure_connected(b.build(), &mut rng);
        assert!(is_connected(&fixed));
        assert!(fixed.min_degree() >= 1);
    }

    /// A sparse random graph on 4,000 ids with thousands of components,
    /// many of them isolated nodes.
    fn many_components(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4_000u32;
        let mut b = GraphBuilder::new();
        b.grow_to(n as usize);
        for _ in 0..1_500 + 200 * seed {
            b.add_edge(rng.random_range(0..n), rng.random_range(0..n));
        }
        b.build()
    }

    /// [`ensure_connected`] as it read with one `members` scan per
    /// component.
    fn ensure_connected_by_scan<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Graph {
        let comps = connected_components(g);
        if comps.count() <= 1 {
            return g.clone();
        }
        let big = comps.largest();
        let big_members = comps.members(big);
        let mut b = GraphBuilder::with_capacity(g.num_edges() + comps.count());
        b.grow_to(g.num_nodes());
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        for c in 0..comps.count() as u32 {
            if c == big {
                continue;
            }
            let members = comps.members(c);
            let from = members[rng.random_range(0..members.len())];
            let to = big_members[rng.random_range(0..big_members.len())];
            b.add_edge(from, to);
        }
        b.build()
    }

    /// [`ensure_connected_chain`] as it read with one `members` scan
    /// per component.
    fn ensure_connected_chain_by_scan<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Graph {
        let comps = connected_components(g);
        if comps.count() <= 1 {
            return g.clone();
        }
        let mut b = GraphBuilder::with_capacity(g.num_edges() + comps.count());
        b.grow_to(g.num_nodes());
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        for c in 1..comps.count() as u32 {
            let prev = comps.members(c - 1);
            let cur = comps.members(c);
            let from = prev[rng.random_range(0..prev.len())];
            let to = cur[rng.random_range(0..cur.len())];
            b.add_edge(from, to);
        }
        b.build()
    }

    #[test]
    fn repairs_match_the_per_component_scan() {
        for seed in 0..4 {
            let g = many_components(seed);
            let comps = connected_components(&g);
            assert!(comps.count() > 1_000, "seed {seed}: {}", comps.count());
            assert!(comps.sizes.contains(&1), "seed {seed}: no isolated node");
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let hub = ensure_connected(g.clone(), &mut a);
            assert_eq!(hub, ensure_connected_by_scan(&g, &mut b), "seed {seed}");
            let chain = ensure_connected_chain(g.clone(), &mut a);
            assert_eq!(
                chain,
                ensure_connected_chain_by_scan(&g, &mut b),
                "seed {seed}"
            );
            // both sides drew the same numbers
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
            assert!(is_connected(&hub) && is_connected(&chain));
        }
    }

    #[test]
    fn preserves_existing_edges() {
        let g = three_triangles();
        let mut rng = StdRng::seed_from_u64(3);
        let fixed = ensure_connected(g.clone(), &mut rng);
        for (u, v) in g.edges() {
            assert!(fixed.has_edge(u, v));
        }
    }
}
