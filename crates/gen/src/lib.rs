//! Deterministic synthetic graph generators and the dataset catalog.
//!
//! The IMC'10 paper measures 15 crawled social graphs (its Table 1).
//! Those datasets are not redistributable, so this crate provides two
//! things in their place:
//!
//! 1. **Generators** — classic random-graph models
//!    ([`er`], [`ba`], [`ws`], [`regular`], [`sbm`], [`chunglu`]) plus a
//!    calibrated community-structured social-graph model ([`social`])
//!    whose inter-community edge fraction directly controls the
//!    spectral gap, and deterministic [`fixtures`] with closed-form
//!    spectra for testing the eigensolvers.
//! 2. **The catalog** ([`catalog`]) — one stand-in recipe per Table-1
//!    dataset, matched on node count, edge count, and mixing-time
//!    class (see DESIGN.md §2 for the substitution argument).
//!
//! All generators are deterministic given an explicit [`rand::Rng`]:
//! the same seed always produces the same graph, which the experiment
//! harness relies on for reproducibility.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = socmix_gen::ba::barabasi_albert(500, 3, &mut rng);
//! assert_eq!(g.num_nodes(), 500);
//! assert!(socmix_graph::components::is_connected(&g));
//! ```

#![forbid(unsafe_code)]

pub mod ba;
pub mod cache;
pub mod catalog;
pub mod chunglu;
pub mod connect;
pub mod er;
pub mod fixtures;
pub mod hierarchy;
pub mod kronecker;
pub mod regular;
pub mod rewire;
pub mod sbm;
pub mod social;
pub mod ws;

pub use cache::{CacheEvent, CacheOutcome, GraphCache, GENERATOR_VERSION};
pub use catalog::Dataset;
