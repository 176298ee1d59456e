//! Mutable edge accumulator that freezes into a [`Graph`].

use crate::{Graph, NodeId};

/// Accumulates edges and freezes them into a canonical [`Graph`].
///
/// The builder owns all input-sanitization policy:
///
/// - every added edge is treated as undirected (stored both ways), which
///   is exactly the paper's directed→undirected conversion,
/// - self-loops are dropped,
/// - parallel edges are deduplicated at [`GraphBuilder::build`] time,
/// - node ids are dense `0..n` where `n` is one past the largest id seen
///   (or a larger explicit [`GraphBuilder::grow_to`] value).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    /// Edge list as (min, max) pairs; may contain duplicates until build.
    edges: Vec<(NodeId, NodeId)>,
    /// Number of nodes = max id seen + 1, or an explicit floor.
    n: usize,
    /// Count of self-loops dropped, for diagnostics.
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder that pre-reserves space for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            n: 0,
            dropped_self_loops: 0,
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently
    /// dropped (counted in [`GraphBuilder::dropped_self_loops`]) and do
    /// **not** grow the node-id space — a dropped loop on an otherwise
    /// unseen id must not manufacture an isolated node (use
    /// [`GraphBuilder::grow_to`] to reserve ids explicitly). Duplicates
    /// are removed when building.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            self.dropped_self_loops += 1;
            return;
        }
        let hi = u.max(v) as usize + 1;
        if hi > self.n {
            self.n = hi;
        }
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Ensures the node-id space covers `0..n` even if some of those
    /// nodes end up isolated.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
        }
    }

    /// Number of self-loop insertions that were dropped.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of (possibly duplicate) edges currently staged.
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Current node-id space size.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Builds the edge list from an iterator of pairs.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b
    }

    /// Freezes into a canonical [`Graph`] (sorted, deduplicated,
    /// symmetric CSR). Consumes the builder.
    ///
    /// Counting-sorts every staged pair into both endpoints' lists,
    /// then sorts and dedups each list: O(n + s) plus the sum of
    /// `d log d` over the lists, for `s` staged pairs and staged
    /// degrees `d`. Duplicates are dropped per list, so the targets
    /// array keeps the capacity of all `2s` staged entries.
    pub fn build(self) -> Graph {
        let n = self.n;
        // offsets[v] = staged degree of v, then its list's end
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut acc = 0usize;
        for o in &mut offsets {
            acc += *o;
            *o = acc;
        }
        // Fill each list from its end, taking the pairs in reverse, so
        // lists come out in staging order and offsets[v] ends at v's
        // start.
        let mut targets = vec![0 as NodeId; acc];
        for &(u, v) in self.edges.iter().rev() {
            offsets[u as usize] -= 1;
            targets[offsets[u as usize]] = v;
            offsets[v as usize] -= 1;
            targets[offsets[v as usize]] = u;
        }
        // Sort each list and compact it, without its duplicates, down
        // to where the previous deduplicated list ended.
        let mut kept = 0usize;
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            targets[lo..hi].sort_unstable();
            offsets[v] = kept;
            for i in lo..hi {
                let t = targets[i];
                if kept == offsets[v] || targets[kept - 1] != t {
                    targets[kept] = t;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        targets.truncate(kept);
        Graph::from_csr(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 3);
        b.add_edge(0, 1);
        assert_eq!(b.dropped_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 2); // the dropped loop reserves nothing
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn dropped_self_loop_does_not_reserve_id_space() {
        // A self-loop on a previously unseen max id must not create an
        // isolated node; only real edges (or grow_to) extend `n`.
        let mut b = GraphBuilder::new();
        b.add_edge(9, 9);
        assert_eq!(b.num_nodes(), 0);
        assert_eq!(b.dropped_self_loops(), 1);
        b.add_edge(0, 1);
        assert_eq!(b.num_nodes(), 2);
        // grow_to remains the explicit way to reserve the id
        b.grow_to(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn grow_to_adds_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.grow_to(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn grow_to_never_shrinks() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 6);
        b.grow_to(2);
        assert_eq!(b.num_nodes(), 7);
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).build();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn adjacency_sorted_after_build() {
        // Insert edges in an order designed to interleave fills.
        let g = GraphBuilder::from_edges([(5, 0), (0, 3), (0, 1), (4, 0), (0, 2)]).build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    /// The CSR arrays of `pairs` on `0..n` by a global sort and dedup
    /// of the canonical pairs, then one sorted list per node.
    fn sort_dedup_reference(n: usize, pairs: &[(NodeId, NodeId)]) -> (Vec<usize>, Vec<NodeId>) {
        let mut canon: Vec<_> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let mut adj = vec![Vec::new(); n];
        for (u, v) in canon {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for mut list in adj {
            list.sort_unstable();
            targets.extend(list);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    #[test]
    fn build_matches_sort_dedup_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // few ids and many pairs: duplicates, both orientations and
            // self-loops are common
            let ids = rng.random_range(1..60u32);
            let pairs: Vec<(NodeId, NodeId)> = (0..rng.random_range(0..400))
                .map(|_| (rng.random_range(0..ids), rng.random_range(0..ids)))
                .collect();
            let mut b = GraphBuilder::from_edges(pairs.iter().copied());
            // reserve isolated ids past the largest seen on some seeds
            let reserved = if seed % 3 == 0 { ids as usize + 7 } else { 0 };
            b.grow_to(reserved);
            let n = b.num_nodes();
            assert!(n >= reserved);
            let g = b.build();
            let (offsets, targets) = sort_dedup_reference(n, &pairs);
            assert_eq!(g.offsets(), offsets.as_slice(), "seed {seed}");
            assert_eq!(g.raw_targets(), targets.as_slice(), "seed {seed}");
        }
        for n in [0, 5] {
            let mut b = GraphBuilder::new();
            b.grow_to(n);
            let g = b.build();
            assert_eq!(g.offsets(), vec![0; n + 1].as_slice());
            assert!(g.raw_targets().is_empty());
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(16);
        b.add_edge(0, 1);
        assert_eq!(b.staged_edges(), 1);
        assert_eq!(b.build().num_edges(), 1);
    }
}
