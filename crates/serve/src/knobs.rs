//! Environment knobs for the serving layer — the crate's designated
//! env-read module (the `socmix-lint` SL003 stray-env-read rule scopes
//! environment access to modules like this one).
//!
//! Like every knob module in the workspace, the pattern is: the
//! environment is read in exactly one place, each raw value goes
//! through a *pure* parse function (testable without touching the
//! environment), and an invalid value warns once and falls back to the
//! default instead of being silently swallowed.
//!
//! | Variable                      | Meaning                                    | Default          |
//! |-------------------------------|--------------------------------------------|------------------|
//! | `SOCMIX_SERVE_ADDR`           | HTTP listener address                      | `127.0.0.1:7470` |
//! | `SOCMIX_SERVE_THREADS`        | Connection-serving worker threads          | cores, min 4     |
//! | `SOCMIX_SERVE_QUEUE`          | Bounded accept-queue capacity              | `64`             |
//! | `SOCMIX_SERVE_DEADLINE_MS`    | Per-request deadline before shedding       | `2000`           |
//! | `SOCMIX_SERVE_BATCH_MAX`      | Max queries per batch (1=per-request)      | `64`             |

use std::time::Duration;

/// Resolved serving configuration. Plain data: the listener and
/// worker pool read it, nothing here touches the network.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// HTTP listener bind address.
    pub addr: String,
    /// Connection-serving worker threads (each serves one connection
    /// at a time; the accept queue bounds what waits behind them).
    pub threads: usize,
    /// Bounded accept-queue capacity; a connection arriving when the
    /// queue is full is shed with a typed 503 instead of queueing.
    pub queue: usize,
    /// Per-request deadline: time from accept to the answer being
    /// computed. Requests that age out in the queue or inside a batch
    /// wait are shed.
    pub deadline: Duration,
    /// Unused, and zero by default: batching has no timer (see
    /// [`crate::batch`]). The field remains for callers that still
    /// read it.
    pub batch_window: Duration,
    /// Maximum queries coalesced into one batch; 1 = per-request
    /// dispatch.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7470".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
            queue: 64,
            deadline: Duration::from_millis(2000),
            batch_window: Duration::ZERO,
            batch_max: 64,
        }
    }
}

impl ServeConfig {
    /// Reads every `SOCMIX_SERVE_*` knob, warning once per invalid
    /// value and keeping the default.
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Ok(v) = std::env::var("SOCMIX_SERVE_ADDR") {
            if !v.trim().is_empty() {
                cfg.addr = v.trim().to_string();
            }
        }
        cfg.threads = parsed_or(
            "SOCMIX_SERVE_THREADS",
            std::env::var("SOCMIX_SERVE_THREADS").ok().as_deref(),
            cfg.threads,
            1,
        );
        cfg.queue = parsed_or(
            "SOCMIX_SERVE_QUEUE",
            std::env::var("SOCMIX_SERVE_QUEUE").ok().as_deref(),
            cfg.queue,
            1,
        );
        cfg.deadline = Duration::from_millis(parsed_or(
            "SOCMIX_SERVE_DEADLINE_MS",
            std::env::var("SOCMIX_SERVE_DEADLINE_MS").ok().as_deref(),
            cfg.deadline.as_millis() as usize,
            1,
        ) as u64);
        cfg.batch_max = parsed_or(
            "SOCMIX_SERVE_BATCH_MAX",
            std::env::var("SOCMIX_SERVE_BATCH_MAX").ok().as_deref(),
            cfg.batch_max,
            1,
        );
        cfg
    }
}

/// Pure parse for one non-negative integer knob: `None` (unset) or a
/// valid value ≥ `min` resolves normally; anything else warns once per
/// knob and keeps `default`.
fn parsed_or(name: &str, raw: Option<&str>, default: usize, min: usize) -> usize {
    match raw {
        None => default,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= min => n,
            _ => {
                socmix_obs::warn_once!(
                    "serve",
                    "ignoring invalid {name}={v:?}: expected an integer >= {min}, \
                     keeping {default}"
                );
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_parse() {
        assert_eq!(parsed_or("K", Some("8"), 4, 1), 8);
        assert_eq!(parsed_or("K", Some(" 12 "), 4, 1), 12);
        assert_eq!(parsed_or("K", Some("0"), 4, 0), 0);
    }

    #[test]
    fn invalid_values_keep_the_default() {
        assert_eq!(parsed_or("K", None, 4, 1), 4);
        assert_eq!(parsed_or("K", Some("zero"), 4, 1), 4);
        assert_eq!(parsed_or("K", Some("-3"), 4, 1), 4);
        assert_eq!(parsed_or("K", Some("0"), 4, 1), 4, "below the floor");
        assert_eq!(parsed_or("K", Some(""), 4, 1), 4);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.threads >= 4);
        assert!(cfg.queue >= 1);
        assert!(cfg.batch_max >= 1);
    }
}
