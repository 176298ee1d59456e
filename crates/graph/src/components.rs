//! Connected components and largest-component extraction.
//!
//! The mixing time is undefined for disconnected graphs, so the paper
//! (like every Sybil-defense work it studies) measures on the largest
//! connected component (LCC). [`largest_component`] is that
//! preprocessing step.

use crate::subgraph::{induced_subgraph, NodeMapping};
use crate::{Graph, NodeId, UnionFind};
use std::collections::VecDeque;

/// Per-node component labels plus component sizes.
#[derive(Debug, Clone)]
pub struct Components {
    /// `label[v]` ∈ `0..num_components`; labels are assigned in
    /// discovery order of a scan from node 0.
    pub label: Vec<u32>,
    /// `sizes[c]` = number of nodes with label `c`.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Label of the largest component (ties broken by smallest label).
    pub fn largest(&self) -> u32 {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Nodes belonging to component `c`, ascending. One O(n) scan per
    /// call: to visit every component, use [`Components::member_lists`].
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.label
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Every component's ascending member list, grouped by one
    /// counting-sort pass over the labels: O(n + count) in all.
    pub fn member_lists(&self) -> MemberLists {
        let mut offsets = Vec::with_capacity(self.count() + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &s in &self.sizes {
            acc += s;
            offsets.push(acc);
        }
        let mut cursor = offsets[..self.count()].to_vec();
        let mut nodes = vec![0 as NodeId; acc];
        for (v, &c) in self.label.iter().enumerate() {
            nodes[cursor[c as usize]] = v as NodeId;
            cursor[c as usize] += 1;
        }
        MemberLists { offsets, nodes }
    }
}

/// All components' member lists in one flat array, from
/// [`Components::member_lists`].
#[derive(Debug, Clone)]
pub struct MemberLists {
    /// `offsets[c]..offsets[c + 1]` indexes `nodes` for component `c`.
    offsets: Vec<usize>,
    /// Members grouped by label, ascending within each group.
    nodes: Vec<NodeId>,
}

impl MemberLists {
    /// Nodes belonging to component `c`, ascending.
    pub fn of(&self, c: u32) -> &[NodeId] {
        &self.nodes[self.offsets[c as usize]..self.offsets[c as usize + 1]]
    }
}

/// Labels connected components by repeated BFS.
pub fn connected_components(g: &Graph) -> Components {
    const UNLABELED: u32 = u32::MAX;
    let n = g.num_nodes();
    let mut label = vec![UNLABELED; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n as NodeId {
        if label[start as usize] != UNLABELED {
            continue;
        }
        let c = sizes.len() as u32;
        let mut size = 0usize;
        label[start as usize] = c;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == UNLABELED {
                    label[v as usize] = c;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, sizes }
}

/// Counts components with union-find — an independent implementation
/// used by tests to cross-check [`connected_components`].
pub fn count_components_unionfind(g: &Graph) -> usize {
    let mut uf = UnionFind::new(g.num_nodes());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    uf.num_components()
}

/// Whether the graph is connected (a zero-node graph counts as
/// connected).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() == 0 || connected_components(g).count() == 1
}

/// Extracts the largest connected component as a relabeled graph.
///
/// Returns the component and the mapping back to original ids. On an
/// empty graph returns an empty graph.
pub fn largest_component(g: &Graph) -> (Graph, NodeMapping) {
    if g.num_nodes() == 0 {
        return (Graph::empty(0), NodeMapping::from_sorted(Vec::new()));
    }
    let comps = connected_components(g);
    let members = comps.members(comps.largest());
    induced_subgraph(g, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_components() -> Graph {
        // triangle {0,1,2} + path {3,4}; node 5 isolated
        let mut b = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (3, 4)]);
        b.grow_to(6);
        b.build()
    }

    #[test]
    fn labels_and_sizes() {
        let c = connected_components(&two_components());
        assert_eq!(c.count(), 3);
        assert_eq!(c.sizes, vec![3, 2, 1]);
        assert_eq!(c.label[0], c.label[2]);
        assert_ne!(c.label[0], c.label[3]);
    }

    #[test]
    fn largest_picks_triangle() {
        let c = connected_components(&two_components());
        assert_eq!(c.largest(), 0);
        assert_eq!(c.members(0), vec![0, 1, 2]);
    }

    #[test]
    fn member_lists_match_members_for_every_label() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Sparse random graphs over 3,000 ids: thousands of components,
        // isolated nodes among them, labels interleaved across ids.
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3_000u32;
            let mut b = GraphBuilder::new();
            b.grow_to(n as usize);
            for _ in 0..(seed as usize * 400) {
                b.add_edge(rng.random_range(0..n), rng.random_range(0..n));
            }
            let c = connected_components(&b.build());
            let lists = c.member_lists();
            assert!(c.count() > 1_000, "seed {seed}: {} components", c.count());
            for l in 0..c.count() as u32 {
                assert_eq!(lists.of(l), c.members(l).as_slice(), "label {l}");
            }
        }
        let none = connected_components(&Graph::empty(0)).member_lists();
        assert_eq!(none.nodes.len(), 0);
    }

    #[test]
    fn largest_tie_breaks_to_first() {
        let g = GraphBuilder::from_edges([(0, 1), (2, 3)]).build();
        let c = connected_components(&g);
        assert_eq!(c.sizes, vec![2, 2]);
        assert_eq!(c.largest(), 0);
    }

    #[test]
    fn unionfind_agrees_with_bfs() {
        let g = two_components();
        assert_eq!(
            count_components_unionfind(&g),
            connected_components(&g).count()
        );
    }

    #[test]
    fn is_connected_cases() {
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&GraphBuilder::from_edges([(0, 1)]).build()));
        assert!(!is_connected(&two_components()));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn lcc_extraction() {
        let (lcc, map) = largest_component(&two_components());
        assert_eq!(lcc.num_nodes(), 3);
        assert_eq!(lcc.num_edges(), 3);
        assert!(is_connected(&lcc));
        assert_eq!(map.kept(), &[0, 1, 2]);
    }

    #[test]
    fn lcc_of_empty_graph() {
        let (lcc, map) = largest_component(&Graph::empty(0));
        assert_eq!(lcc.num_nodes(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn lcc_of_connected_graph_is_identity() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2)]).build();
        let (lcc, _) = largest_component(&g);
        assert_eq!(lcc, g);
    }
}
