//! The repository benchmark.
//!
//! ```text
//! mixbench --workload <spectral|sampling|serve_open|serve_closed>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from the seed, sets up several times,
//! measures operations for the given number of seconds, checks every
//! answer outside the timed region and prints each metric by name
//! with its unit and sample count. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run records spans around its calls into each
//! layer and prints the per-layer table instead. WORKLOADS.md says
//! why each workload exists and what it loads.

mod calib;
mod layers;
mod refs;
mod sampling;
mod serve;
mod spectral;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Duration;

use socmix_obs::Value;

/// What the command line asked for.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload hands back: its metrics, the operation counts and
/// the spans of a traced run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<trace::SpanRec>,
    pub notes: Vec<String>,
    /// Per-layer metrics on the workload's path left without a value.
    pub unattributed: Vec<&'static str>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records one operation's outcome; a failure carries its reason.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("failed operation: {why}"));
            }
        }
    }

    /// Prints the layer-sum check, and a warning when it does not hold.
    /// A failing check does not mark the run incorrect: `correct` covers
    /// the program's answers, and the check covers the benchmark's
    /// attribution of time, which the machine's noise can move.
    pub fn layer_sum(&mut self, check: &trace::SumCheck, what: &str) {
        let ops = check.walls.len();
        self.metric("trace.unattributed_frac", check.residual(), "fraction", ops);
        let mut note = format!(
            "layer-sum check {}: {:.2}% of wall unexplained ({}), tolerance {:.0}%",
            if check.ok() { "holds" } else { "FAILS" },
            check.residual() * 100.0,
            if ops > 1 {
                format!("median of {ops} {what}")
            } else {
                what.to_string()
            },
            check.tol * 100.0,
        );
        if ops > 1 {
            let each: Vec<String> = check
                .residual_frac()
                .iter()
                .map(|r| format!("{:.1}", r * 100.0))
                .collect();
            note += &format!("; per pair (%): {}", each.join(" "));
        }
        if !check.ok() {
            eprintln!("mixbench: {note}");
        }
        self.notes.push(note);
    }

    /// Marks per-layer metrics the workload's path has but could not
    /// attribute, so their zero rows are not read as measurements.
    pub fn unattributed(&mut self, names: &[&'static str], why: String) {
        self.unattributed.extend_from_slice(names);
        self.notes
            .push(format!("{why}; not attributed: {}", names.join(", ")));
    }
}

/// Set-up timings of a run. Set-ups run before the first operation
/// and between operations, so their median covers the same stretch of
/// machine time as the operations' median.
#[derive(Default)]
pub struct Setups {
    /// Whole set-up, in seconds.
    pub total_s: Vec<f64>,
    /// The graph generation inside it, in milliseconds.
    pub gen_ms: Vec<f64>,
}

/// Process peak resident memory (`VmHWM`, in KiB) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// A SplitMix64 step: derives independent seeds from the run seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_args() -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let cfg = RunCfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if cfg.seconds == 0 || cfg.seconds > 120 {
        return Err(format!("--seconds must be in 1..=120, got {}", cfg.seconds));
    }
    Ok(cfg)
}

/// Output of a command, or why it could not run.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent_of_cwd())
        .output()
    {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        Ok(out) => format!(
            "unavailable ({})",
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .next()
                .unwrap_or("")
                .trim()
        ),
        Err(e) => format!("unavailable ({e})"),
    }
}

/// Keeps `git describe` from walking above the checkout.
fn parent_of_cwd() -> String {
    std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default()
}

/// The hardware and toolchain a result was measured on.
fn stamp() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx512f = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512f = false;
    Value::Obj(vec![
        ("nproc".into(), Value::Str(command_line("nproc", &[]))),
        (
            "available_parallelism".into(),
            Value::Int(parallelism as i64),
        ),
        ("avx512f".into(), Value::Bool(avx512f)),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_describe".into(),
            Value::Str(command_line("git", &["describe", "--always", "--dirty"])),
        ),
    ])
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mixbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A stray knob would make two runs measure different programs, so
    // a run refuses to start with any of them set.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SOCMIX_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "mixbench: refusing to run with {} set; unset every SOCMIX_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let report = match cfg.workload.as_str() {
        "spectral" => spectral::run(&cfg),
        "sampling" => sampling::run(&cfg),
        "serve_open" => serve::run(&cfg, serve::Loop::Open),
        "serve_closed" => serve::run(&cfg, serve::Loop::Closed),
        other => {
            eprintln!(
                "mixbench: unknown workload {other:?} \
                 (spectral, sampling, serve_open, serve_closed)"
            );
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mixbench: {} failed to run: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    finish(&cfg, report)
}

fn finish(cfg: &RunCfg, mut report: Report) -> ExitCode {
    // A traced run prints every per-layer metric. One the workload's
    // path never calls, or one it could not attribute, reads 0 with no
    // samples and is named as such.
    if cfg.trace {
        let mut off_path = Vec::new();
        for (name, unit) in layers::PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.metric(name, 0.0, unit, 0);
                if !report.unattributed.contains(&name) {
                    off_path.push(name);
                }
            }
        }
        if !off_path.is_empty() {
            report.notes.push(format!(
                "not on this workload's path (0, n=0): {}",
                off_path.join(", ")
            ));
        }
    }
    let (declared, printed): (Vec<&str>, Vec<&str>) = if cfg.trace {
        let names = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        (names, Vec::new())
    } else {
        (layers::END_TO_END.to_vec(), layers::reported(&cfg.workload))
    };
    let known: Vec<&str> = declared.iter().chain(&printed).copied().collect();
    let stray: Vec<&str> = report
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| !known.contains(n))
        .collect();
    let absent: Vec<&str> = known
        .iter()
        .copied()
        .filter(|n| !report.metrics.iter().any(|m| m.name == *n))
        .collect();
    if !stray.is_empty() || !absent.is_empty() {
        eprintln!("mixbench: undeclared metrics {stray:?}, missing metrics {absent:?}");
        return ExitCode::from(1);
    }
    report
        .metrics
        .sort_by_key(|m| known.iter().position(|n| *n == m.name));
    println!(
        "# mixbench workload={} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("stamp {}", stamp().to_compact());
    for note in &report.notes {
        println!("note  {note}");
    }
    for m in &report.metrics {
        let gate = if printed.contains(&m.name.as_str()) {
            ", reported, not gated"
        } else if report.unattributed.contains(&m.name.as_str()) {
            ", not attributed"
        } else {
            ""
        };
        println!(
            "{:<34} {:>16.6} {:<8} (n={}{gate})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<34} {:>16.6} {:<8} (failed {} of {} attempted)",
        "error_rate", error_rate, "fraction", report.failed, report.attempted
    );
    if cfg.trace {
        let dir = std::path::Path::new("mixbench").join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&report.spans)))
        {
            Ok(()) => println!(
                "trace {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => println!("trace {} spans not written: {e}", report.spans.len()),
        }
    }
    let bad: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !bad.is_empty() {
        eprintln!(
            "mixbench: metrics without a finite value: {}",
            bad.join(", ")
        );
        return ExitCode::from(1);
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics = report
        .metrics
        .iter()
        .filter(|m| declared.contains(&m.name.as_str()))
        .map(|m| {
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(report.attempted as i64)),
        ("failed".into(), Value::Int(report.failed as i64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

/// A duration as whole seconds from the command line.
pub fn run_for(cfg: &RunCfg) -> Duration {
    Duration::from_secs(cfg.seconds)
}
