//! # socmix — Measuring the Mixing Time of Social Graphs
//!
//! Facade crate for the `socmix` workspace, a full Rust reproduction of
//! *Measuring the Mixing Time of Social Graphs* (Mohaisen, Yun, Kim —
//! IMC 2010). It re-exports every sub-crate under one namespace so
//! applications can depend on a single crate:
//!
//! - [`graph`] — CSR graph substrate: I/O, components, BFS sampling,
//!   low-degree trimming.
//! - [`gen`] — deterministic synthetic generators and the Table-1
//!   dataset catalog (stand-ins for the paper's crawled datasets).
//! - [`linalg`] — Lanczos / power-iteration / Jacobi eigensolvers used
//!   to compute the second largest eigenvalue modulus (SLEM).
//! - [`markov`] — random-walk machinery: stationary distribution,
//!   distribution evolution, distance metrics.
//! - [`core`] — the paper's contribution: SLEM-based mixing-time
//!   bounds and direct sampling measurement.
//! - [`community`] — community structure analysis (label propagation,
//!   modularity, conductance sweeps).
//! - [`sybil`] — SybilLimit / SybilGuard protocols and the
//!   admission-rate experiment.
//! - [`par`] — minimal scoped-thread data parallelism.
//! - [`cli`] — the `socmix` command-line tool's parser and runner.
//!
//! # Quickstart
//!
//! ```
//! use socmix::gen::fixtures;
//! use socmix::core::{Slem, MixingBounds};
//!
//! // An odd 65-node cycle has a closed-form SLEM of cos(π/65).
//! let g = fixtures::cycle(65);
//! let slem = Slem::lanczos(&g).estimate().unwrap();
//! assert!((slem.mu - (std::f64::consts::PI / 65.0).cos()).abs() < 1e-6);
//! let bounds = MixingBounds::new(slem.mu, g.num_nodes());
//! let (lo, hi) = bounds.at_epsilon(0.01);
//! assert!(lo > 1.0 && hi > lo);
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use socmix_community as community;
pub use socmix_core as core;
pub use socmix_gen as gen;
pub use socmix_graph as graph;
pub use socmix_linalg as linalg;
pub use socmix_markov as markov;
pub use socmix_par as par;
pub use socmix_sybil as sybil;
