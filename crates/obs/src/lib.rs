//! Zero-dependency observability for the socmix workspace.
//!
//! The measurements this workspace reproduces are long-running — a
//! 1000-source sampling probe is thousands of blocked matvec sweeps, a
//! SLEM solve is hundreds of operator applications — and the only way
//! to defend "as fast as the hardware allows" is to see where those
//! iterations, dispatches, and wall-clock actually go. The offline
//! build has no `tracing`/`metrics`, so this crate provides the small
//! subset the workspace needs, with two hard contracts:
//!
//! 1. **The disabled path costs one relaxed atomic load.** Counters,
//!    histograms, and spans check [`metrics_enabled`] first and touch
//!    nothing else when it is off; events check [`log_enabled`]
//!    likewise. No clock reads, no locks, no allocation. The overhead
//!    bench (`socmix-bench`, `benches/obs.rs`) guards this.
//! 2. **Telemetry never perturbs numerics.** Instrumentation observes;
//!    it must not change chunk geometry, iteration order, RNG draws,
//!    or float association. The workspace determinism suite asserts
//!    outputs are bit-for-bit identical with telemetry on and off.
//!
//! # Pieces
//!
//! - [`Counter`] / [`Gauge`] — named process-wide atomics, registered
//!   lazily on first touch into a global registry; [`snapshot`] merges
//!   duplicates by name and [`reset`] zeroes everything (e.g. between
//!   `repro` commands).
//! - [`Histogram`] — 64 log₂ buckets plus count/sum/max; cheap enough
//!   for per-dispatch latencies.
//! - [`Span`] — an RAII timer that records elapsed nanoseconds into a
//!   histogram on drop (or an early [`Span::finish`]); aggregation is
//!   thread-aware because the backing histogram is atomic, so spans on
//!   concurrent pool workers fold into one distribution.
//! - [`obs_event!`] and friends — leveled diagnostics gated by
//!   `SOCMIX_LOG` (off/error/warn/info/debug, default `warn`), written
//!   to stderr and mirrored into a small in-memory ring
//!   ([`take_recent_events`]) so tests can assert on emissions.
//! - [`Value`] — a minimal JSON document model with a writer and
//!   parser, used for the `repro --metrics` run manifests.
//!
//! # Gates
//!
//! Metrics default **off** and turn on via the `SOCMIX_METRICS`
//! environment variable (any non-empty value other than `0`) or
//! programmatically via [`set_metrics_enabled`] (what `repro
//! --metrics` does). Tracing likewise defaults off and turns on via
//! `SOCMIX_TRACE=1` or [`set_trace_enabled`] (what `repro --trace`
//! does); both bits share one atomic so a [`Span`] — which feeds both
//! a histogram and the trace — still costs a single relaxed load when
//! everything is off. Logging defaults to `warn` so misconfiguration
//! warnings (e.g. an invalid `SOCMIX_THREADS`) are visible without any
//! setup, and is tuned via `SOCMIX_LOG` or [`set_log_level`]. All
//! gates are single atomics: flipping them is safe at any time from
//! any thread.

#![forbid(unsafe_code)]

mod event;
pub mod export;
mod hist;
mod json;
mod registry;
mod span;
pub mod trace;

pub use event::{emit, log_enabled, log_level, set_log_level, take_recent_events, Level};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use json::{parse, Value};
pub use registry::{reset, snapshot, Counter, Gauge, MetricsSnapshot};
pub use span::Span;
pub use trace::{TraceEvent, TracePhase, TraceSpan};

use std::sync::atomic::{AtomicU8, Ordering};

/// Gate bit: counters/histograms/span timings record.
pub(crate) const G_METRICS: u8 = 0b001;
/// Gate bit: trace begin/end events record.
pub(crate) const G_TRACE: u8 = 0b010;
/// Gate bit: the environment has been consulted.
const G_INIT: u8 = 0b100;

/// Metrics and trace gates packed into one atomic so an instrument
/// that serves both (a [`Span`]) still pays exactly one relaxed load
/// on the disabled path.
static GATE: AtomicU8 = AtomicU8::new(0);

/// The resolved gate bits. The hot-path check: one relaxed load once
/// the gate has resolved (the environment is consulted exactly once,
/// lazily).
#[inline]
pub(crate) fn gate() -> u8 {
    // ORDERING: Relaxed — the gate is a pure enable flag: no data is
    // published under it, every instrument is internally synchronized,
    // and the only cost of a stale read is one recording skipped or
    // dropped during an enable/disable race, which the API permits.
    let v = GATE.load(Ordering::Relaxed);
    if v & G_INIT != 0 {
        v
    } else {
        init_gate()
    }
}

#[cold]
fn init_gate() -> u8 {
    let metrics = matches!(std::env::var("SOCMIX_METRICS"), Ok(v) if !v.is_empty() && v != "0");
    let tracing = trace::trace_from_env(std::env::var("SOCMIX_TRACE").ok().as_deref());
    let bits = G_INIT | if metrics { G_METRICS } else { 0 } | if tracing { G_TRACE } else { 0 };
    // `fetch_or` so a programmatic `set_*_enabled` racing with the
    // first lazy init is never clobbered by the environment read.
    // ORDERING: Relaxed — the RMW is already atomic against concurrent
    // initializers; the gate guards no other memory (see `gate()`).
    GATE.fetch_or(bits, Ordering::Relaxed) | bits
}

/// Whether counters/histograms/spans record anything.
#[inline]
pub fn metrics_enabled() -> bool {
    gate() & G_METRICS != 0
}

/// Whether trace begin/end events record (see [`trace`]).
#[inline]
pub fn trace_enabled() -> bool {
    gate() & G_TRACE != 0
}

/// Turns metric recording on or off, overriding `SOCMIX_METRICS`.
///
/// `repro --metrics` calls this so a manifest run needs no environment
/// setup. Counters touched while the gate was off simply hold zero.
pub fn set_metrics_enabled(on: bool) {
    gate(); // resolve the environment first so lazy init cannot undo this
    if on {
        // ORDERING: Relaxed — flag flip only; recordings racing the
        // transition may land on either side, which the API permits.
        GATE.fetch_or(G_METRICS, Ordering::Relaxed);
    } else {
        // ORDERING: Relaxed — same argument as the enable arm.
        GATE.fetch_and(!G_METRICS, Ordering::Relaxed);
    }
}

/// Turns trace recording on or off, overriding `SOCMIX_TRACE`.
///
/// `repro --trace` calls this before its stages run.
pub fn set_trace_enabled(on: bool) {
    gate(); // resolve the environment first so lazy init cannot undo this
    if on {
        // ORDERING: Relaxed — same argument as `set_metrics_enabled`:
        // the gate publishes nothing; span begin/end around the flip
        // may straddle it harmlessly.
        GATE.fetch_or(G_TRACE, Ordering::Relaxed);
    } else {
        // ORDERING: Relaxed — same argument as the enable arm.
        GATE.fetch_and(!G_TRACE, Ordering::Relaxed);
    }
}

/// Serializes unit tests that flip or depend on the process-global
/// gates (they would race across the test harness's threads).
#[cfg(test)]
pub(crate) fn test_gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_flips_both_ways() {
        let _g = test_gate_lock();
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
    }

    #[test]
    fn gates_are_independent() {
        let _g = test_gate_lock();
        set_metrics_enabled(true);
        set_trace_enabled(false);
        assert!(metrics_enabled());
        assert!(!trace_enabled());
        set_trace_enabled(true);
        assert!(metrics_enabled());
        assert!(trace_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        assert!(trace_enabled());
        set_trace_enabled(false);
        set_metrics_enabled(true);
    }
}
