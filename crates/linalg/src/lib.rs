//! Eigensolvers and linear operators for random-walk spectra.
//!
//! The paper's first measurement method needs the **second largest
//! eigenvalue modulus** (SLEM) of the random-walk transition matrix
//! `P = D⁻¹A` of graphs with up to a million nodes. No mature sparse
//! eigensolver exists in the offline crate set, so this crate
//! implements the whole stack from scratch:
//!
//! - [`op`] — matrix-free [`op::LinearOp`]s over a CSR graph: the
//!   row-stochastic walk operator `P`, its symmetrization
//!   `S = D^{-1/2} A D^{-1/2}` (same spectrum, symmetric — the key
//!   trick that lets us use symmetric methods), lazy and deflated
//!   wrappers. The walk operators have one f64 gather, a plain loop
//!   that sums each CSR row in storage order, so results are bit for
//!   bit the same at every pool width.
//! - [`multivec`] — row-major `n × B` blocks and the batched
//!   [`multivec::MultiLinearOp`] apply: one CSR traversal serves `B`
//!   stacked distributions, the GEMM-shaped kernel behind the
//!   sampling probe, each column bit-for-bit the single-vector apply.
//! - [`dense`] — dense symmetric **Jacobi** eigensolver, the ground
//!   truth for everything else on graphs up to a few hundred nodes.
//! - [`tridiag`] — symmetric tridiagonal QL with implicit shifts,
//!   the inner solver for Lanczos.
//! - [`lanczos`] — **Lanczos**: the extreme pair in O(n) memory with
//!   no stored basis, the production path for SLEM at every size, and
//!   the top-k pairs with full reorthogonalization.
//! - [`power`] — power iteration with Rayleigh quotients, an
//!   independent second method used to cross-check Lanczos.
//! - [`vecops`] — the dense vector kernels shared by all of the
//!   above.
//! - [`workspace`] — per-thread reusable scratch buffers, from the
//!   O(n) vectors of the operators above to the batch evolver's
//!   `n × B` blocks; with them nothing allocates per application, so
//!   the iterative drivers run allocation-free in steady state.
//!
//! Spectral facts used throughout (Theorem 2 of the paper, after
//! Sinclair): for a connected undirected graph the eigenvalues of `P`
//! are real, `1 = λ₁ > λ₂ ≥ … ≥ λₙ ≥ −1`, with `λₙ = −1` iff the
//! graph is bipartite; `µ = max(λ₂, −λₙ)`; and the eigenvector of
//! `S` for λ₁ is the known vector `D^{1/2}𝟙` (normalized), which we
//! deflate explicitly instead of estimating.

// Parallel kernels write their output through the `&mut` row chunks
// socmix-par hands out; nothing here needs `unsafe`.
#![forbid(unsafe_code)]

pub mod cg;
pub mod dense;
pub mod lanczos;
pub mod multivec;
pub mod op;
pub mod power;
pub mod tridiag;
pub mod vecops;
pub mod workspace;

pub use dense::{jacobi_eigen, DenseMatrix};
pub use lanczos::{lanczos_extreme, lanczos_topk, LanczosOptions, LanczosResult, TopkResult};
pub use multivec::{MultiLinearOp, MultiVec};
pub use op::{DeflatedOp, LazyOp, LinearOp, SymmetricWalkOp, WalkOp};
pub use power::{
    power_iteration, spectral_radius_in_complement, PowerOptions, PowerResult, SpectralRadius,
};
