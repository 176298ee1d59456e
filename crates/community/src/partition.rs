//! Node partitions and their quality measures.

use socmix_graph::{Graph, NodeId};

/// A partition of the node set into communities, with dense labels
/// `0..num_communities`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
    k: usize,
}

impl Partition {
    /// Builds a partition from raw labels, renumbering them densely
    /// in order of first appearance.
    pub fn from_labels(raw: &[u32]) -> Self {
        // socmix-lint: allow(hashmap-iter-in-numeric): lookup-only map — dense ids come from insertion order over the input slice and the map itself is never iterated, so hash order cannot affect results.
        let mut remap = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(raw.len());
        for &l in raw {
            let next = remap.len() as u32;
            let dense = *remap.entry(l).or_insert(next);
            labels.push(dense);
        }
        Partition {
            labels,
            k: remap.len(),
        }
    }

    /// The trivial partition: every node in one community.
    pub fn single(n: usize) -> Self {
        Partition {
            labels: vec![0; n],
            k: if n == 0 { 0 } else { 1 },
        }
    }

    /// The discrete partition: every node its own community.
    pub fn singletons(n: usize) -> Self {
        Partition {
            labels: (0..n as u32).collect(),
            k: n,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the partition covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of communities.
    pub fn num_communities(&self) -> usize {
        self.k
    }

    /// Label of node `v`.
    pub fn label(&self, v: NodeId) -> u32 {
        self.labels[v as usize]
    }

    /// All labels (dense).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Community sizes, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &l in &self.labels {
            s[l as usize] += 1;
        }
        s
    }

    /// Members of community `c`, ascending.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Newman modularity
    /// `Q = Σ_c (e_c/m − (vol_c/2m)²)` where `e_c` is the number of
    /// intra-community edges and `vol_c` the total degree of `c`.
    ///
    /// High modularity (≳ 0.3) means strong community structure —
    /// the regime where the paper finds slow mixing.
    pub fn modularity(&self, g: &Graph) -> f64 {
        assert_eq!(self.labels.len(), g.num_nodes());
        let m = g.num_edges() as f64;
        if m == 0.0 {
            return 0.0;
        }
        let mut intra = vec![0usize; self.k];
        let mut vol = vec![0usize; self.k];
        for v in g.nodes() {
            vol[self.labels[v as usize] as usize] += g.degree(v);
        }
        for (u, v) in g.edges() {
            if self.labels[u as usize] == self.labels[v as usize] {
                intra[self.labels[u as usize] as usize] += 1;
            }
        }
        (0..self.k)
            .map(|c| {
                let e = intra[c] as f64 / m;
                let d = vol[c] as f64 / (2.0 * m);
                e - d * d
            })
            .sum()
    }

    /// Conductance of each community viewed as a cut against the rest
    /// of the graph (`None` for degenerate cuts).
    pub fn community_conductances(&self, g: &Graph) -> Vec<Option<f64>> {
        assert_eq!(self.labels.len(), g.num_nodes());
        let vol_total = g.total_degree();
        let mut cut = vec![0usize; self.k];
        let mut vol = vec![0usize; self.k];
        for v in g.nodes() {
            let lv = self.labels[v as usize] as usize;
            vol[lv] += g.degree(v);
            for &u in g.neighbors(v) {
                if self.labels[u as usize] as usize != lv {
                    cut[lv] += 1;
                }
            }
        }
        (0..self.k)
            .map(|c| {
                let denom = vol[c].min(vol_total - vol[c]);
                if denom == 0 {
                    None
                } else {
                    Some(cut[c] as f64 / denom as f64)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_gen::fixtures;

    #[test]
    fn from_labels_renumbers_densely() {
        let p = Partition::from_labels(&[7, 3, 7, 9]);
        assert_eq!(p.labels(), &[0, 1, 0, 2]);
        assert_eq!(p.num_communities(), 3);
        assert_eq!(p.sizes(), vec![2, 1, 1]);
        assert_eq!(p.members(0), vec![0, 2]);
    }

    #[test]
    fn trivial_partitions() {
        let single = Partition::single(5);
        assert_eq!(single.num_communities(), 1);
        let singles = Partition::singletons(5);
        assert_eq!(singles.num_communities(), 5);
        assert!(Partition::single(0).is_empty());
    }

    #[test]
    fn modularity_of_single_partition_is_zero() {
        let g = fixtures::petersen();
        let q = Partition::single(10).modularity(&g);
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn modularity_rewards_true_communities() {
        // barbell: the two-clique split has high modularity
        let k = 6;
        let g = fixtures::barbell(k, 0);
        let labels: Vec<u32> = (0..2 * k).map(|v| (v >= k) as u32).collect();
        let p = Partition::from_labels(&labels);
        let q = p.modularity(&g);
        assert!(q > 0.4, "clique split should score high, got {q}");
        // and beats a random split
        let bad: Vec<u32> = (0..2 * k).map(|v| (v % 2) as u32).collect();
        let qb = Partition::from_labels(&bad).modularity(&g);
        assert!(q > qb);
    }

    #[test]
    fn modularity_bounded_above_by_one() {
        let g = fixtures::barbell(5, 0);
        let labels: Vec<u32> = (0..10).map(|v| (v >= 5) as u32).collect();
        assert!(Partition::from_labels(&labels).modularity(&g) < 1.0);
    }

    #[test]
    fn community_conductance_matches_direct() {
        let k = 5;
        let g = fixtures::barbell(k, 0);
        let labels: Vec<u32> = (0..2 * k).map(|v| (v >= k) as u32).collect();
        let p = Partition::from_labels(&labels);
        let phis = p.community_conductances(&g);
        let expect = 1.0 / (k as f64 * (k as f64 - 1.0) + 1.0);
        for phi in phis {
            assert!((phi.unwrap() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn single_community_conductance_degenerate() {
        let g = fixtures::petersen();
        let phis = Partition::single(10).community_conductances(&g);
        assert_eq!(phis, vec![None]);
    }
}
