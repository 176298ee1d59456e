//! Compact undirected-graph substrate for social-graph measurements.
//!
//! This crate provides the graph layer that every other `socmix` crate
//! builds on. It mirrors the preprocessing pipeline of *Measuring the
//! Mixing Time of Social Graphs* (IMC 2010):
//!
//! 1. load an edge list (directed edges are symmetrized, because the
//!    random-walk theory in the paper is for undirected graphs) —
//!    [`io`],
//! 2. extract the largest connected component (the mixing time is
//!    undefined on a disconnected graph) — [`components`],
//! 3. optionally trim low-degree nodes, the SybilGuard/SybilLimit
//!    preprocessing the paper studies in its Figure 6 — [`trim`],
//! 4. optionally take a BFS sample of a fixed node count, the paper's
//!    sampler for its 10K/100K/1000K subgraphs — [`sample`].
//!
//! The central type is [`Graph`], a frozen CSR (compressed sparse row)
//! structure with `u32` node ids and sorted adjacency lists. Graphs are
//! constructed through [`GraphBuilder`], which owns the mutation policy
//! (deduplication, self-loop removal, symmetrization) so that a `Graph`
//! can guarantee its invariants:
//!
//! - adjacency is symmetric: `v ∈ adj(u)` ⇔ `u ∈ adj(v)`,
//! - adjacency lists are sorted and duplicate-free,
//! - there are no self-loops.
//!
//! # Example
//!
//! ```
//! use socmix_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(1), 2);
//! assert!(g.has_edge(0, 2));
//! ```

#![forbid(unsafe_code)]

mod builder;
pub mod centrality;
pub mod components;
mod csr;
pub mod flow;
pub mod io;
pub mod sample;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod trim;
mod unionfind;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use subgraph::NodeMapping;
pub use unionfind::UnionFind;

/// Node identifier. `u32` caps graphs at ~4.29 billion nodes, far above
/// the paper's largest dataset (1.13M nodes), while halving the memory
/// of adjacency arrays relative to `usize` on 64-bit targets.
pub type NodeId = u32;
