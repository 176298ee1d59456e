//! Community structure analysis.
//!
//! The paper's discussion ties its slow-mixing finding to community
//! structure: "the second largest eigenvalue used for measuring the
//! mixing time bounds the graph conductance, a measure for the
//! community structure", and cites Viswanath et al.'s observation
//! that Sybil defenses are sensitive to communities. This crate
//! provides the structure side of that connection:
//!
//! - [`Partition`] — a labeling of nodes into communities with
//!   [`Partition::modularity`] and per-community conductance,
//! - [`label_propagation`] — the classic near-linear community
//!   detector, used by the ablation benches to show that graphs where
//!   detection finds strong communities are exactly the slow mixers.

#![forbid(unsafe_code)]

mod labelprop;
pub mod ncp;
mod partition;
pub mod spectral;

pub use labelprop::{label_propagation, LabelPropOptions};
pub use ncp::{ncp_approx, ncp_minimum, NcpPoint};
pub use partition::Partition;
pub use spectral::{spectral_clustering, spectral_embedding, SpectralOptions};
