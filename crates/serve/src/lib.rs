//! Mixing-time-as-a-service: a long-running server over the socmix
//! estimators.
//!
//! The rest of the workspace measures mixing times in batch — one
//! `repro` invocation, one answer, one process exit. This crate keeps
//! the estimators resident and answers the same questions under
//! sustained traffic:
//!
//! - `GET /mix?graph=..&eps=..` — the SLEM µ and the paper's
//!   mixing-time bracket `T(ε)` ([`socmix_core::MixingBounds`]).
//! - `GET /escape?graph=..&node=..&w=..` — the probability a `w`-step
//!   walk from an honest node ends inside the graph's deterministic
//!   Sybil region.
//! - `POST /admit` — a SybilLimit admission verdict for a suspect
//!   list.
//! - `POST /load` / `POST /evict` / `GET /graphs` — catalog graphs in
//!   and out of residence (backed by [`socmix_gen::GraphCache`], so
//!   restarts reload from disk).
//! - `GET /metrics` / `GET /trace` / `GET /health` — the live ops
//!   surface: the [`socmix_obs`] snapshot and Chrome-trace export over
//!   HTTP.
//!
//! The endpoints speak a minimal HTTP/1.1 subset ([`http`]), the one
//! parser of untrusted network bytes in the crate.
//!
//! # Throughput and overload
//!
//! Every escape probe against the same (graph, `w`) reads one escape
//! table, P^w·1_S, built by the first probe and kept in a store with a
//! fixed byte budget ([`cache`]). Concurrent probes coalesce into
//! batches ([`batch`]) that share one table lookup, or one build.
//! Batching is natural, with no timer: a lone probe computes at once,
//! and probes that arrive while a batch computes form the next one, so
//! concurrent first probes build the table once. Batched and
//! per-request answers read the same table and are bit-identical
//! (`SOCMIX_SERVE_BATCH_MAX=1` turns batching off). `/mix` answers
//! cache by content-hash key ([`cache`]). Overload is explicit: a bounded accept queue sheds at
//! the door with a typed 503 (`serve.shed`), and requests that age
//! past the per-request deadline shed instead of queueing unboundedly
//! ([`server`]).

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod http;
pub mod knobs;
pub mod queries;
pub mod server;

pub use catalog::{Catalog, LoadedGraph};
pub use knobs::ServeConfig;
pub use server::{Server, SHED_BODY};
