//! Measuring the mixing time of social graphs — the core library.
//!
//! Implements both measurement methods of *Measuring the Mixing Time
//! of Social Graphs* (Mohaisen, Yun, Kim — IMC 2010):
//!
//! 1. **Spectral (SLEM) method** — [`Slem`] estimates the second
//!    largest eigenvalue modulus `µ = max(λ₂, −λₙ)` of the walk
//!    matrix (Lanczos, power-iteration, or dense backend), and
//!    [`MixingBounds`] turns it into the paper's Theorem-2 bounds
//!    `µ/(2(1−µ))·ln(1/2ε) ≤ T(ε) ≤ (ln n + ln 1/ε)/(1−µ)`.
//! 2. **Sampling method** — [`MixingProbe`] evolves exact
//!    distributions from sampled (or all) sources and records the
//!    total-variation series that Definition 1's `min{t : ‖·‖ < ε}`
//!    is read from; [`aggregate`] turns per-source series into the
//!    CDFs and percentile bands of the paper's Figures 3–7.
//!
//! Supporting experiments: [`trimming`] reproduces the
//! SybilGuard/SybilLimit low-degree-trimming study (Figure 6) and
//! [`conductance`] connects µ to the graph's community structure via
//! sweep cuts (the paper's §3.2 note that `Φ ≥ 1−µ`).
//!
//! # Example
//!
//! ```
//! use socmix_core::{Slem, MixingBounds, MixingProbe};
//! use socmix_gen::fixtures;
//!
//! let g = fixtures::barbell(12, 0); // two cliques: a slow mixer
//! let est = Slem::lanczos(&g).estimate().unwrap();
//! assert!(est.mu > 0.9); // bottleneck ⇒ µ near 1
//!
//! let bounds = MixingBounds::new(est.mu, g.num_nodes());
//! let (lo, hi) = bounds.at_epsilon(0.01);
//! assert!(lo > 1.0 && hi >= lo);
//!
//! // the sampling method agrees: the walk needs ≳ lo steps
//! let probe = MixingProbe::new(&g);
//! let t = probe.time_to_epsilon(0, 0.01, 10_000).unwrap();
//! assert!((t as f64) >= lo.floor());
//! ```

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod average;
pub mod bounds;
pub mod conductance;
pub mod decay;
pub mod probe;
pub mod report;
pub mod slem;
pub mod trimming;

pub use bounds::MixingBounds;
pub use probe::MixingProbe;
pub use report::{measure, MeasureOptions, MixingReport};
pub use slem::{Slem, SlemError, SlemEstimate, SlemMethod};
