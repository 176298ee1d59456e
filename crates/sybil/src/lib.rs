//! Social-network Sybil defenses: SybilLimit and SybilGuard.
//!
//! The paper's "Performance Implications" experiment (its Figure 8)
//! implements SybilLimit and runs it over social graphs with
//! increasing random-route length `w`, measuring the fraction of
//! honest nodes a verifier admits — showing that the short walk
//! lengths the defense papers assumed (10–15) admit far fewer honest
//! nodes on slow-mixing graphs than claimed. This crate is a faithful
//! implementation of the pieces that experiment needs:
//!
//! - [`route`] — the *random route* primitive both protocols share:
//!   per-instance random permutation routing tables, giving
//!   back-traceable, convergent walks,
//! - [`sybillimit`] — SybilLimit (Yu et al., S&P'08): `r = r₀√m`
//!   instances, tail registration, the intersection condition and the
//!   balance condition,
//! - [`sybilguard`] — SybilGuard (Yu et al., SIGCOMM'06): one
//!   instance, per-edge witness routes, route-intersection
//!   verification,
//! - [`mod@sybilinfer`] — SybilInfer (Danezis & Mittal, NDSS'09): walk
//!   traces + Metropolis–Hastings inference of the honest set, whose
//!   likelihood is calibrated on the fast-mixing assumption the IMC
//!   paper tests,
//! - [`attack`] — the attack model: a Sybil region of configurable
//!   topology attached through `g` attack edges,
//! - [`experiment`] — the admission-rate and Sybil-yield experiment
//!   drivers used by the `repro` harness.

#![forbid(unsafe_code)]

pub mod attack;
pub mod experiment;
pub mod ranking;
pub mod route;
pub mod sumup;
pub mod sybilguard;
pub mod sybilinfer;
pub mod sybillimit;

pub use attack::{attach_sybil_region, AttackParams, AttackedGraph, SybilTopology};
pub use ranking::{evaluate_ranking, pagerank_ranking, RankingEvaluation};
pub use route::{DirectedEdge, RouteInstance};
pub use sumup::{collect_votes, SumUpParams, VoteOutcome};
pub use sybilguard::SybilGuard;
pub use sybilinfer::{sybilinfer, SybilInferParams, SybilInferResult};
pub use sybillimit::{benchmark_walk_length, SybilLimit, SybilLimitParams, WalkLengthEstimate};
