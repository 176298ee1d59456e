//! Random walks on graphs: the Markov-chain layer of the paper.
//!
//! Formalizes Section 3 of *Measuring the Mixing Time of Social
//! Graphs*: the random walk over an undirected graph `G` is the
//! Markov chain with transition probability `p_ij = 1/deg(v_i)` for
//! adjacent nodes (Eq. 1); its stationary distribution is
//! `π_v = deg(v)/2m` (Theorem 1); and the mixing time compares the
//! `t`-step distribution against `π` in total variation distance
//! (Definition 1).
//!
//! - [`stationary`] — `π` and its invariance checks,
//! - [`dist`] — total variation and the other distances the
//!   literature uses (the paper's §2 critiques Whānau's
//!   separation-distance-style measurement; both are here so the
//!   comparison can be reproduced),
//! - [`evolve`] — exact distribution evolution `x ← xP` in O(m) per
//!   step, the workhorse of the sampling method,
//! - [`batch`] — blocked multi-source evolution: one CSR traversal
//!   serves a whole block of sources, with early retirement of
//!   converged columns,
//! - [`walk`] — sampled trajectories (used by the Sybil protocols),
//! - [`ergodic`] — connectivity/aperiodicity checks and the lazy-walk
//!   fallback for bipartite graphs.

#![forbid(unsafe_code)]

pub mod batch;
pub mod dist;
pub mod ergodic;
pub mod evolve;
pub mod hitting;
pub mod pagerank;
pub mod stationary;
pub mod walk;

pub use batch::BatchEvolver;
pub use dist::total_variation;
pub use ergodic::{ergodicity, Ergodicity, WalkKind};
pub use evolve::Evolver;
pub use stationary::stationary_distribution;
