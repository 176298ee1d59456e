//! Run manifests: a machine-readable record of what a `repro`
//! invocation did — command, configuration, environment knobs, build
//! provenance, per-stage wall-clock and resume state, artifact-cache
//! provenance, and the full telemetry snapshot.
//!
//! Written by `repro --metrics <path>` so a slow or surprising run can
//! be diagnosed after the fact (how many matvecs? which graphs came
//! from cache? which stages were replayed from stamps?) and so results
//! can be tied to the exact configuration that produced them.

use crate::pipeline::StageOutcome;
use crate::RunConfig;
use socmix_gen::CacheEvent;
use socmix_obs::{MetricsSnapshot, Value};

/// Builds the manifest for a finished run.
///
/// `git` is the build provenance string (see [`git_describe`]) and
/// `snapshot` the telemetry state at the end of the run. `cache_events`
/// is the per-artifact provenance drained from the graph cache
/// (`None` when the cache is disabled). `trace_events` is the
/// chrome-format event list from a `--trace` run (`None` when tracing
/// was off); the manifest condenses it into a per-stage top-5
/// exclusive-time profile table.
// Every parameter is a distinct section of the manifest with exactly
// one call site; a params struct would just rename the positions.
#[allow(clippy::too_many_arguments)]
pub fn run_manifest(
    command: &str,
    cfg: &RunConfig,
    stages: &[StageOutcome],
    total_seconds: f64,
    git: &str,
    cache_events: Option<&[CacheEvent]>,
    snapshot: &MetricsSnapshot,
    trace_events: Option<&[Value]>,
) -> Value {
    let env_knob = |name: &str| match std::env::var(name) {
        Ok(v) => Value::Str(v),
        Err(_) => Value::Null,
    };
    let cache = match (&cfg.cache_dir, cache_events) {
        (Some(dir), Some(events)) => Value::Obj(vec![
            ("enabled".into(), Value::Bool(true)),
            ("dir".into(), Value::Str(dir.clone())),
            (
                "generator_version".into(),
                Value::Int(socmix_gen::GENERATOR_VERSION as i64),
            ),
            (
                "entries".into(),
                Value::Arr(
                    events
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("dataset".into(), Value::Str(e.dataset.clone())),
                                ("scale".into(), Value::Float(e.scale)),
                                ("seed".into(), Value::Int(e.seed as i64)),
                                ("key".into(), Value::Str(format!("{:016x}", e.key))),
                                ("outcome".into(), Value::Str(e.outcome.name().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        _ => Value::Obj(vec![("enabled".into(), Value::Bool(false))]),
    };
    Value::Obj(vec![
        ("command".into(), Value::Str(command.to_string())),
        (
            "config".into(),
            Value::Obj(vec![
                ("scale".into(), Value::Float(cfg.scale)),
                ("seed".into(), Value::Int(cfg.seed as i64)),
                ("sources".into(), Value::Int(cfg.sources as i64)),
                ("t_max".into(), Value::Int(cfg.t_max as i64)),
                ("resume".into(), Value::Bool(cfg.resume)),
                ("fresh".into(), Value::Bool(cfg.fresh)),
                (
                    "stage_jobs".into(),
                    Value::Int(RunConfig::stage_jobs() as i64),
                ),
            ]),
        ),
        (
            "threads".into(),
            Value::Int(socmix_par::num_threads() as i64),
        ),
        (
            "env".into(),
            Value::Obj(vec![
                ("SOCMIX_THREADS".into(), env_knob("SOCMIX_THREADS")),
                ("SOCMIX_LOG".into(), env_knob("SOCMIX_LOG")),
                ("SOCMIX_TRACE".into(), env_knob("SOCMIX_TRACE")),
            ]),
        ),
        ("git".into(), Value::Str(git.to_string())),
        ("cache".into(), cache),
        (
            "stages".into(),
            Value::Arr(
                stages
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(s.name.clone())),
                            ("seconds".into(), Value::Float(s.seconds)),
                            ("resumed".into(), Value::Bool(s.resumed)),
                            (
                                "config_hash".into(),
                                Value::Str(format!("{:016x}", s.config_hash)),
                            ),
                            (
                                "output".into(),
                                match &s.output_path {
                                    Some(p) => Value::Str(p.display().to_string()),
                                    None => Value::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_seconds".into(), Value::Float(total_seconds)),
        ("metrics".into(), snapshot.to_json()),
        (
            "trace_profile".into(),
            match trace_events {
                Some(events) => socmix_obs::export::exclusive_profile(events, 5),
                None => Value::Null,
            },
        ),
    ])
}

/// Build provenance: `git describe --always --dirty`, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_gen::CacheOutcome;
    use socmix_obs::parse;

    fn sample_stages() -> Vec<StageOutcome> {
        vec![
            StageOutcome {
                name: "table1".into(),
                seconds: 1.25,
                resumed: false,
                config_hash: 0xabcd,
                output_path: Some("results/stages/table1.txt".into()),
            },
            StageOutcome {
                name: "fig1".into(),
                seconds: 0.0,
                resumed: true,
                config_hash: 0x1234,
                output_path: None,
            },
        ]
    }

    fn sample_events() -> Vec<CacheEvent> {
        vec![CacheEvent {
            dataset: "wiki-vote".into(),
            scale: 0.05,
            seed: 7,
            key: 0xfeed,
            outcome: CacheOutcome::Hit,
        }]
    }

    fn sample_manifest() -> Value {
        let cfg = RunConfig::default();
        let events = sample_events();
        run_manifest(
            "all",
            &cfg,
            &sample_stages(),
            1.75,
            "deadbeef",
            Some(&events),
            &socmix_obs::snapshot(),
            None,
        )
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample_manifest();
        let text = m.to_pretty();
        let back = parse(&text).expect("manifest must be valid JSON");
        assert_eq!(back.get("command").unwrap().as_str(), Some("all"));
        assert_eq!(
            back.get("config").unwrap().get("seed").unwrap().as_i64(),
            Some(7)
        );
        assert_eq!(back.get("git").unwrap().as_str(), Some("deadbeef"));
        let stages = back.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("table1"));
        assert_eq!(stages[0].get("seconds").unwrap().as_f64(), Some(1.25));
        assert_eq!(
            stages[0].get("config_hash").unwrap().as_str(),
            Some("000000000000abcd")
        );
        assert_eq!(stages[1].get("resumed").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("total_seconds").unwrap().as_f64(), Some(1.75));
        assert!(back.get("metrics").unwrap().get("counters").is_some());
    }

    #[test]
    fn manifest_records_cache_provenance() {
        let m = sample_manifest();
        let cache = m.get("cache").unwrap();
        assert_eq!(cache.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(cache.get("dir").unwrap().as_str(), Some("results/cache"));
        assert_eq!(
            cache.get("generator_version").unwrap().as_i64(),
            Some(socmix_gen::GENERATOR_VERSION as i64)
        );
        let entries = cache.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("dataset").unwrap().as_str(),
            Some("wiki-vote")
        );
        assert_eq!(entries[0].get("outcome").unwrap().as_str(), Some("hit"));
        assert_eq!(
            entries[0].get("key").unwrap().as_str(),
            Some("000000000000feed")
        );
    }

    #[test]
    fn disabled_cache_is_recorded_as_disabled() {
        let cfg = RunConfig {
            cache_dir: None,
            ..RunConfig::default()
        };
        let m = run_manifest(
            "all",
            &cfg,
            &sample_stages(),
            1.0,
            "deadbeef",
            None,
            &socmix_obs::snapshot(),
            None,
        );
        let cache = m.get("cache").unwrap();
        assert_eq!(cache.get("enabled").unwrap().as_bool(), Some(false));
        assert!(cache.get("entries").is_none());
    }

    #[test]
    fn manifest_records_pipeline_config() {
        let m = sample_manifest();
        let config = m.get("config").unwrap();
        assert_eq!(config.get("resume").unwrap().as_bool(), Some(false));
        assert!(config.get("stage_jobs").unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn manifest_records_live_counters() {
        socmix_obs::set_metrics_enabled(true);
        static PROBE: socmix_obs::Counter = socmix_obs::Counter::new("bench.manifest.probe");
        PROBE.add(3);
        let m = sample_manifest();
        let counters = m.get("metrics").unwrap().get("counters").unwrap();
        assert!(counters.get("bench.manifest.probe").unwrap().as_i64() >= Some(3));
    }

    #[test]
    fn threads_field_is_positive() {
        let m = sample_manifest();
        assert!(m.get("threads").unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn manifest_without_trace_has_null_profile() {
        let m = sample_manifest();
        assert!(matches!(m.get("trace_profile"), Some(Value::Null)));
        let env = m.get("env").unwrap();
        assert!(env.get("SOCMIX_TRACE").is_some());
        assert!(env.get("SOCMIX_THREADS").is_some());
    }

    #[test]
    fn manifest_condenses_trace_events_into_a_profile() {
        // One stage span with one nested child: 100us total, 30us
        // child, so the stage's exclusive time is 70us.
        let slice = |name: &str, span: i64, parent: i64, dur: f64| {
            Value::Obj(vec![
                ("ph".into(), Value::Str("X".into())),
                ("name".into(), Value::Str(name.into())),
                ("ts".into(), Value::Float(0.0)),
                ("dur".into(), Value::Float(dur)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("span".into(), Value::Int(span)),
                        ("parent".into(), Value::Int(parent)),
                    ]),
                ),
            ])
        };
        let events = vec![
            slice("table1", 1, 0, 100.0),
            slice("pool.map_ns", 2, 1, 30.0),
        ];
        let cfg = RunConfig::default();
        let m = run_manifest(
            "table1",
            &cfg,
            &sample_stages(),
            1.0,
            "deadbeef",
            None,
            &socmix_obs::snapshot(),
            Some(&events),
        );
        let profile = m.get("trace_profile").unwrap();
        let rows = profile.get("table1").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("table1"));
        assert_eq!(rows[0].get("exclusive_us").unwrap().as_f64(), Some(70.0));
        assert_eq!(rows[1].get("name").unwrap().as_str(), Some("pool.map_ns"));
        assert_eq!(rows[1].get("exclusive_us").unwrap().as_f64(), Some(30.0));
    }

    #[test]
    fn git_describe_never_panics() {
        let s = git_describe();
        assert!(!s.is_empty());
    }
}
