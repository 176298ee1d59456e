//! Run configuration shared by every `repro` subcommand.

/// Configuration parsed from `repro`'s command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Global dataset scale (1.0 = the paper's sizes). Defaults to
    /// 0.05 so `repro all` completes on one machine; pass
    /// `--scale 1.0` for paper-size runs.
    pub scale: f64,
    /// Seed for every generator and sampler.
    pub seed: u64,
    /// Number of random sources for sampling probes (the paper uses
    /// 1000).
    pub sources: usize,
    /// Maximum walk length for probe series.
    pub t_max: usize,
    /// `--metrics <path>`: enable telemetry and write a JSON run
    /// manifest (command, config, per-stage timings, cache provenance,
    /// full metrics snapshot) to this path on exit.
    pub metrics: Option<String>,
    /// `--trace <path>`: enable span tracing and write a Chrome
    /// trace-event JSON (loadable in `chrome://tracing` / Perfetto)
    /// covering the whole run to this path on exit.
    pub trace: Option<String>,
    /// `--quiet`: suppress per-stage progress lines on stderr.
    pub quiet: bool,
    /// Artifact-cache directory for generated graphs (`--cache-dir`),
    /// or `None` with `--no-cache`. Defaults to `results/cache`.
    pub cache_dir: Option<String>,
    /// Directory for per-stage output files and completion stamps
    /// (`--out-dir`). Defaults to `results/stages`.
    pub out_dir: String,
    /// `--resume`: skip stages whose stamp matches the current config
    /// hash, replaying their recorded output.
    pub resume: bool,
    /// `--fresh`: delete existing stamps for the selected stages
    /// before running (guaranteed clean run).
    pub fresh: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.05,
            seed: 7,
            sources: 200,
            t_max: 500,
            metrics: None,
            trace: None,
            quiet: false,
            cache_dir: Some("results/cache".to_string()),
            out_dir: "results/stages".to_string(),
            resume: false,
            fresh: false,
        }
    }
}

impl RunConfig {
    /// Parses `--scale X --seed N --sources K --tmax T --metrics P
    /// --trace P --quiet --cache-dir D --no-cache --out-dir D
    /// --resume --fresh` style flags, returning the config and the
    /// remaining positional arguments.
    ///
    /// Unknown flags produce an error string (the binary prints usage).
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut cfg = RunConfig::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<f64, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<f64>()
                    .map_err(|e| format!("{name}: {e}"))
            };
            match a.as_str() {
                "--scale" => {
                    cfg.scale = take("--scale")?;
                    if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                        return Err("--scale must be in (0, 1]".into());
                    }
                }
                "--seed" => cfg.seed = take("--seed")? as u64,
                "--sources" => cfg.sources = take("--sources")? as usize,
                "--tmax" => cfg.t_max = take("--tmax")? as usize,
                "--metrics" => {
                    let path = it.next().ok_or("--metrics needs a path")?;
                    if path.is_empty() {
                        return Err("--metrics needs a non-empty path".into());
                    }
                    cfg.metrics = Some(path.clone());
                }
                "--trace" => {
                    let path = it.next().ok_or("--trace needs a path")?;
                    if path.is_empty() {
                        return Err("--trace needs a non-empty path".into());
                    }
                    cfg.trace = Some(path.clone());
                }
                "--cache-dir" => {
                    let path = it.next().ok_or("--cache-dir needs a path")?;
                    if path.is_empty() {
                        return Err("--cache-dir needs a non-empty path".into());
                    }
                    cfg.cache_dir = Some(path.clone());
                }
                "--no-cache" => cfg.cache_dir = None,
                "--out-dir" => {
                    let path = it.next().ok_or("--out-dir needs a path")?;
                    if path.is_empty() {
                        return Err("--out-dir needs a non-empty path".into());
                    }
                    cfg.out_dir = path.clone();
                }
                "--resume" => cfg.resume = true,
                "--fresh" => cfg.fresh = true,
                "--quiet" => cfg.quiet = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                positional => rest.push(positional.to_string()),
            }
        }
        if cfg.resume && cfg.fresh {
            return Err("--resume and --fresh are mutually exclusive".into());
        }
        Ok((cfg, rest))
    }

    /// The physics co-authorship graphs are small enough that the
    /// paper probes them exhaustively; boost their scale so the
    /// brute-force figures stay meaningful at small global scales.
    pub fn physics_scale(&self) -> f64 {
        (self.scale * 5.0).min(1.0)
    }

    /// Stages `repro` runs at once: the pool width capped at 4
    /// (stages are internally parallel — wider stage fan-out would
    /// just oversubscribe the cores). `SOCMIX_THREADS=1` gives a
    /// serial run.
    pub fn stage_jobs() -> usize {
        socmix_par::num_threads().clamp(1, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let (cfg, rest) = RunConfig::parse(&strs(&["table1"])).unwrap();
        assert_eq!(cfg, RunConfig::default());
        assert_eq!(cfg.cache_dir.as_deref(), Some("results/cache"));
        assert_eq!(rest, vec!["table1"]);
    }

    #[test]
    fn parses_all_flags() {
        let (cfg, rest) = RunConfig::parse(&strs(&[
            "--scale",
            "0.5",
            "fig1",
            "--seed",
            "9",
            "--sources",
            "50",
            "--tmax",
            "100",
        ]))
        .unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.sources, 50);
        assert_eq!(cfg.t_max, 100);
        assert_eq!(rest, vec!["fig1"]);
    }

    #[test]
    fn parses_metrics_and_quiet() {
        let (cfg, rest) =
            RunConfig::parse(&strs(&["--metrics", "/tmp/m.json", "--quiet", "all"])).unwrap();
        assert_eq!(cfg.metrics.as_deref(), Some("/tmp/m.json"));
        assert!(cfg.quiet);
        assert_eq!(rest, vec!["all"]);
    }

    #[test]
    fn parses_cache_and_pipeline_flags() {
        let (cfg, rest) = RunConfig::parse(&strs(&[
            "--cache-dir",
            "/tmp/cache",
            "--out-dir",
            "/tmp/stages",
            "--resume",
            "all",
        ]))
        .unwrap();
        assert_eq!(cfg.cache_dir.as_deref(), Some("/tmp/cache"));
        assert_eq!(cfg.out_dir, "/tmp/stages");
        assert!(cfg.resume);
        assert!(!cfg.fresh);
        assert_eq!(rest, vec!["all"]);
    }

    #[test]
    fn no_cache_disables_cache() {
        let (cfg, _) = RunConfig::parse(&strs(&["--no-cache", "all"])).unwrap();
        assert_eq!(cfg.cache_dir, None);
    }

    #[test]
    fn rejects_resume_plus_fresh() {
        assert!(RunConfig::parse(&strs(&["--resume", "--fresh", "all"])).is_err());
    }

    #[test]
    fn stage_jobs_auto_is_bounded() {
        assert!((1..=4).contains(&RunConfig::stage_jobs()));
    }

    #[test]
    fn rejects_missing_metrics_path() {
        assert!(RunConfig::parse(&strs(&["--metrics"])).is_err());
    }

    #[test]
    fn parses_trace_path() {
        let (cfg, rest) = RunConfig::parse(&strs(&["--trace", "/tmp/t.json", "table1"])).unwrap();
        assert_eq!(cfg.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(rest, vec!["table1"]);
        let (cfg, _) = RunConfig::parse(&strs(&["all"])).unwrap();
        assert_eq!(cfg.trace, None);
    }

    #[test]
    fn rejects_missing_trace_path() {
        assert!(RunConfig::parse(&strs(&["--trace"])).is_err());
        assert!(RunConfig::parse(&strs(&["--trace", ""])).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(RunConfig::parse(&strs(&["--scale", "2.0"])).is_err());
        assert!(RunConfig::parse(&strs(&["--scale", "0"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(RunConfig::parse(&strs(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(RunConfig::parse(&strs(&["--seed"])).is_err());
    }

    #[test]
    fn physics_scale_boosted_and_capped() {
        let mut cfg = RunConfig {
            scale: 0.05,
            ..Default::default()
        };
        assert!((cfg.physics_scale() - 0.25).abs() < 1e-12);
        cfg.scale = 0.5;
        assert_eq!(cfg.physics_scale(), 1.0);
    }
}
