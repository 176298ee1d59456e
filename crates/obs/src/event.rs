//! The leveled event sink behind `obs_event!` and friends.
//!
//! Events are the *diagnostic* half of the crate (counters are the
//! *accounting* half): residual trajectories, backend selections,
//! misconfiguration warnings. Emission is gated by [`log_enabled`] —
//! one relaxed atomic load when the level is below threshold — and an
//! emitted event goes two places: the process's stderr (the only
//! sanctioned diagnostic output in library crates; `socmix-lint`'s
//! bare-print rule flags any other) and a small in-memory ring that
//! tests drain via [`take_recent_events`] to assert a warning
//! actually fired.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Event severity. `Off` is only a threshold (events themselves are
/// `Error`..=`Debug`); levels at or below the threshold emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Off = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
}

impl Level {
    /// Parses a `SOCMIX_LOG` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The lowercase name (as accepted by [`Level::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Off,
        }
    }
}

/// Sentinel meaning "environment not consulted yet".
const LOG_UNINIT: u8 = u8::MAX;

static LOG: AtomicU8 = AtomicU8::new(LOG_UNINIT);

/// The active threshold (default `warn`; `SOCMIX_LOG` overrides).
pub fn log_level() -> Level {
    let v = LOG.load(Ordering::Relaxed);
    if v == LOG_UNINIT {
        init_log()
    } else {
        Level::from_u8(v)
    }
}

/// Whether an event at `level` would emit — the hot-path check, one
/// relaxed load once the threshold has resolved.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    let v = LOG.load(Ordering::Relaxed);
    let threshold = if v == LOG_UNINIT { init_log() as u8 } else { v };
    level as u8 <= threshold && level != Level::Off
}

/// Sets the threshold, overriding `SOCMIX_LOG`.
pub fn set_log_level(level: Level) {
    LOG.store(level as u8, Ordering::Relaxed);
}

#[cold]
fn init_log() -> Level {
    // An unrecognized value falls back to the default; warning about
    // it from inside the sink's own init would recurse, and `warn` is
    // the loudest default that stays quiet on healthy runs.
    let level = std::env::var("SOCMIX_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Warn);
    LOG.store(level as u8, Ordering::Relaxed);
    level
}

/// Events retained for test inspection; older ones fall off.
const RING_CAP: usize = 256;

fn ring() -> &'static Mutex<VecDeque<String>> {
    static RING: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Formats and emits one event. Callers go through
/// [`obs_event!`](crate::obs_event!) (which performs the level check);
/// calling this directly emits unconditionally.
pub fn emit(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let line = format!("[socmix {} {}] {}", level.name(), target, args);
    {
        let mut buf = ring().lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == RING_CAP {
            buf.pop_front();
        }
        buf.push_back(line.clone());
    }
    // The one sanctioned stderr write in the workspace's library
    // crates: `eprintln!` rather than a raw `io::stderr()` write so
    // the test harness's output capture applies.
    // socmix-lint: allow(bare-print): this sink IS the sanctioned diagnostic route every other crate is told to use.
    eprintln!("{line}");
}

/// Drains and returns the retained recent events (oldest first).
/// Primarily for tests asserting that a diagnostic actually fired.
pub fn take_recent_events() -> Vec<String> {
    ring()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect()
}

/// Emits a leveled event: `obs_event!(Level::Info, "core.slem",
/// "auto picked {backend}")`. Compiles to a single relaxed load when
/// the level is below threshold.
#[macro_export]
macro_rules! obs_event {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($level) {
            $crate::emit($level, $target, ::core::format_args!($($arg)+));
        }
    };
}

/// [`obs_event!`](crate::obs_event!) at `Level::Warn`.
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_event!($crate::Level::Warn, $target, $($arg)+)
    };
}

/// [`obs_event!`](crate::obs_event!) at `Level::Info`.
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_event!($crate::Level::Info, $target, $($arg)+)
    };
}

/// [`obs_event!`](crate::obs_event!) at `Level::Debug`.
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_event!($crate::Level::Debug, $target, $($arg)+)
    };
}

/// Emits a warning at most once per process *per call site* — the
/// shape for misconfiguration diagnostics (e.g. an invalid
/// `SOCMIX_THREADS`) that would otherwise repeat on every dispatch.
/// The once-latch trips even when the warn level is suppressed, so
/// raising the level later does not resurrect old warnings.
#[macro_export]
macro_rules! warn_once {
    ($target:expr, $($arg:tt)+) => {{
        static ONCE: ::std::sync::atomic::AtomicBool =
            ::std::sync::atomic::AtomicBool::new(false);
        if !ONCE.swap(true, ::std::sync::atomic::Ordering::Relaxed) {
            $crate::obs_warn!($target, $($arg)+);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_levels() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" WARN "), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("0"), Some(Level::Off));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn threshold_gates_levels() {
        let _g = crate::test_gate_lock();
        let prev = log_level();
        set_log_level(Level::Info);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        set_log_level(Level::Off);
        assert!(!log_enabled(Level::Error));
        set_log_level(prev);
    }

    #[test]
    fn emitted_events_reach_the_ring() {
        let _g = crate::test_gate_lock();
        let prev = log_level();
        set_log_level(Level::Debug);
        let _ = take_recent_events();
        obs_debug!("test.event", "payload {}", 42);
        let events = take_recent_events();
        assert!(
            events.iter().any(|e| e.contains("payload 42")),
            "missing event: {events:?}"
        );
        set_log_level(prev);
    }

    #[test]
    fn suppressed_events_do_not_emit() {
        let _g = crate::test_gate_lock();
        let prev = log_level();
        set_log_level(Level::Warn);
        let _ = take_recent_events();
        obs_debug!("test.event", "should not appear");
        assert!(take_recent_events().is_empty());
        set_log_level(prev);
    }

    #[test]
    fn warn_once_fires_once() {
        let _g = crate::test_gate_lock();
        let prev = log_level();
        set_log_level(Level::Warn);
        let _ = take_recent_events();
        for _ in 0..3 {
            warn_once!("test.event", "configured badly");
        }
        let hits = take_recent_events()
            .iter()
            .filter(|e| e.contains("configured badly"))
            .count();
        assert_eq!(hits, 1);
        set_log_level(prev);
    }

    #[test]
    fn ring_is_bounded() {
        let _g = crate::test_gate_lock();
        let prev = log_level();
        set_log_level(Level::Debug);
        let _ = take_recent_events();
        for i in 0..RING_CAP + 50 {
            obs_debug!("test.event", "flood {i}");
        }
        let events = take_recent_events();
        assert_eq!(events.len(), RING_CAP);
        // oldest entries fell off, newest survived
        assert!(events
            .last()
            .unwrap()
            .contains(&format!("{}", RING_CAP + 49)));
        set_log_level(prev);
    }
}
