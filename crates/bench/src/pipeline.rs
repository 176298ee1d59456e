//! The cached, resumable, stage-parallel repro pipeline.
//!
//! `repro all` is a sequence of independent stages (one per paper
//! figure/table). This module runs them through the dependency-aware
//! DAG scheduler in `socmix-par` with three guarantees:
//!
//! - **Byte-identical output** — every stage renders into its own
//!   buffer; buffers are flushed to the caller's sink strictly in
//!   canonical stage order (stage *k* prints only after every stage
//!   *< k*), so a stage-parallel run's stdout is byte-for-byte the
//!   same as a serial (`--stage-jobs 1`) run's.
//! - **Checkpointing** — each completed stage writes its output to
//!   `<out_dir>/<stage>.txt` and drops a stamp
//!   (`<out_dir>/<stage>.stamp.json`: stage name, config hash, output
//!   path, wall seconds) the moment it finishes, so an interrupted run
//!   loses only in-flight stages.
//! - **Resume** — with [`PipelineOptions::resume`], stages whose stamp
//!   matches the current config hash are not re-run; their recorded
//!   output is replayed into the ordered stream instead. A stamp from
//!   a different scale/seed/sources/tmax (or generator version) never
//!   matches — the config hash covers them all.
//!
//! The module is deliberately independent of what a "stage" computes:
//! stages are named closures writing to a `String`. That keeps the
//! scheduler, stamping, and replay logic testable without generating a
//! single graph.

use socmix_obs::{Counter, Value};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

static STAGES_RUN: Counter = Counter::new("bench.pipeline.stages_run");
static STAGES_RESUMED: Counter = Counter::new("bench.pipeline.stages_resumed");

/// One schedulable stage: a name, dependency indices into the stage
/// list, and a body rendering the stage's stdout into a buffer.
pub struct StageDef<'a> {
    /// Canonical stage name (`table1`, `fig5`, ...); also the output
    /// and stamp file stem.
    pub name: String,
    /// Indices of stages that must complete first. Dependencies only
    /// affect scheduling, never output order.
    pub deps: Vec<usize>,
    /// Hash of everything the stage's output depends on; stamps with a
    /// different hash never satisfy `--resume`.
    pub config_hash: u64,
    /// Renders the stage, appending to the buffer.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(&mut String) + Sync + 'a>,
}

/// How [`run_pipeline`] should schedule, stamp, and resume.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Maximum stages in flight (1 = serial).
    pub jobs: usize,
    /// Directory for per-stage outputs and stamps; `None` disables
    /// checkpointing (no files, no resume).
    pub out_dir: Option<PathBuf>,
    /// Skip stages with a matching stamp, replaying recorded output.
    pub resume: bool,
    /// Delete the selected stages' stamps before running.
    pub fresh: bool,
}

/// What happened to one stage.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// Stage name.
    pub name: String,
    /// Wall-clock seconds (0.0 when resumed from a stamp).
    pub seconds: f64,
    /// Whether the stage was skipped via a matching stamp.
    pub resumed: bool,
    /// The stage's config hash (as stamped).
    pub config_hash: u64,
    /// Where the stage's output file lives, if checkpointing is on and
    /// the write succeeded.
    pub output_path: Option<PathBuf>,
}

/// Stamp filename for a stage.
fn stamp_path(out_dir: &Path, name: &str) -> PathBuf {
    out_dir.join(format!("{name}.stamp.json"))
}

/// Output filename for a stage.
fn output_path(out_dir: &Path, name: &str) -> PathBuf {
    out_dir.join(format!("{name}.txt"))
}

/// Serializes a stage stamp.
fn stamp_json(name: &str, config_hash: u64, output: &Path, seconds: f64) -> Value {
    Value::Obj(vec![
        ("stage".into(), Value::Str(name.to_string())),
        (
            "config_hash".into(),
            Value::Str(format!("{config_hash:016x}")),
        ),
        ("output".into(), Value::Str(output.display().to_string())),
        ("seconds".into(), Value::Float(seconds)),
    ])
}

/// Reads and validates a stamp; returns the replayable output text iff
/// the stamp matches `config_hash` and its output file is readable.
fn load_stamp(out_dir: &Path, name: &str, config_hash: u64) -> Option<String> {
    let text = std::fs::read_to_string(stamp_path(out_dir, name)).ok()?;
    let v = socmix_obs::parse(&text).ok()?;
    if v.get("stage")?.as_str()? != name {
        return None;
    }
    let hash = u64::from_str_radix(v.get("config_hash")?.as_str()?, 16).ok()?;
    if hash != config_hash {
        return None;
    }
    let out = PathBuf::from(v.get("output")?.as_str()?);
    std::fs::read_to_string(out).ok()
}

/// Writes the stage output and its stamp. The stamp is written *after*
/// the output file and via temp-file + rename, so a stamp on disk
/// always refers to a complete output file.
fn write_checkpoint(
    out_dir: &Path,
    name: &str,
    config_hash: u64,
    text: &str,
    seconds: f64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let out = output_path(out_dir, name);
    std::fs::write(&out, text)?;
    let stamp = stamp_path(out_dir, name);
    let tmp = stamp.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(
        &tmp,
        stamp_json(name, config_hash, &out, seconds).to_pretty(),
    )?;
    match std::fs::rename(&tmp, &stamp) {
        Ok(()) => Ok(out),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Per-stage result collected during the run.
struct Slot {
    text: Option<String>,
    outcome: Option<StageOutcome>,
}

/// Runs the stages through the DAG scheduler.
///
/// `sink` receives each stage's full output, called strictly in stage
/// order (never concurrently). `note` receives human progress lines
/// (stderr-style; the binary gates them on `--quiet`).
///
/// Stamps and output files are written as stages finish; on `resume`,
/// matching stages are replayed without running. Returns one
/// [`StageOutcome`] per stage, in stage order.
pub fn run_pipeline(
    stages: &[StageDef<'_>],
    opts: &PipelineOptions,
    sink: &(dyn Fn(&str) + Sync),
    note: &(dyn Fn(&str) + Sync),
) -> Vec<StageOutcome> {
    if opts.fresh {
        if let Some(dir) = &opts.out_dir {
            for s in stages {
                let _ = std::fs::remove_file(stamp_path(dir, &s.name));
            }
        }
    }
    // Resolve resumable stages up front (cheap, and it lets the DAG
    // treat them as instantly-complete dependencies).
    let replay: Vec<Option<String>> = stages
        .iter()
        .map(|s| {
            if opts.resume {
                opts.out_dir
                    .as_deref()
                    .and_then(|d| load_stamp(d, &s.name, s.config_hash))
            } else {
                None
            }
        })
        .collect();

    let slots: Vec<Mutex<Slot>> = stages
        .iter()
        .map(|_| {
            Mutex::new(Slot {
                text: None,
                outcome: None,
            })
        })
        .collect();
    // Ordered flush state: index of the next stage to hand to `sink`.
    let flush = Mutex::new(0usize);

    let deps: Vec<Vec<usize>> = stages.iter().map(|s| s.deps.clone()).collect();
    let run_one = |i: usize| {
        let stage = &stages[i];
        let (text, outcome) = if let Some(saved) = &replay[i] {
            STAGES_RESUMED.add(1);
            note(&format!("[{}] resumed from stamp", stage.name));
            (
                saved.clone(),
                StageOutcome {
                    name: stage.name.clone(),
                    seconds: 0.0,
                    resumed: true,
                    config_hash: stage.config_hash,
                    output_path: opts.out_dir.as_deref().map(|d| output_path(d, &stage.name)),
                },
            )
        } else {
            STAGES_RUN.add(1);
            // The stage label is the top-level span of this subtree:
            // every pool/linalg span recorded by the stage body nests
            // under it, so the exported trace groups work by stage.
            let trace_span = socmix_obs::TraceSpan::begin(stage.name.clone());
            let t = Instant::now();
            let mut buf = String::new();
            (stage.run)(&mut buf);
            let seconds = t.elapsed().as_secs_f64();
            drop(trace_span);
            let mut path = None;
            if let Some(dir) = &opts.out_dir {
                match write_checkpoint(dir, &stage.name, stage.config_hash, &buf, seconds) {
                    Ok(p) => path = Some(p),
                    Err(e) => note(&format!(
                        "[{}] warning: could not write checkpoint: {e}",
                        stage.name
                    )),
                }
            }
            note(&format!("[{}] finished in {seconds:.2}s", stage.name));
            (
                buf,
                StageOutcome {
                    name: stage.name.clone(),
                    seconds,
                    resumed: false,
                    config_hash: stage.config_hash,
                    output_path: path,
                },
            )
        };
        {
            let mut slot = slots[i].lock().unwrap_or_else(|e| e.into_inner());
            slot.text = Some(text);
            slot.outcome = Some(outcome);
        }
        // Flush every stage whose predecessors (in stage order, not
        // DAG order) have all been flushed. Holding the flush lock
        // serializes sink calls.
        let mut next = flush.lock().unwrap_or_else(|e| e.into_inner());
        while *next < stages.len() {
            let mut slot = slots[*next].lock().unwrap_or_else(|e| e.into_inner());
            match slot.text.take() {
                Some(text) => {
                    sink(&text);
                    *next += 1;
                }
                None => break,
            }
        }
    };
    socmix_par::run_dag(&deps, opts.jobs, run_one).expect("stage dependency graph is valid");

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .outcome
                .expect("every scheduled stage records an outcome")
        })
        .collect()
}

/// FNV-1a over a canonical description of everything a stage's output
/// depends on: stage name, the numeric run configuration, and the
/// generator version (so bumping `socmix_gen::GENERATOR_VERSION`
/// invalidates stamps exactly like it invalidates cache entries).
pub fn stage_config_hash(cfg: &crate::RunConfig, stage: &str) -> u64 {
    let canonical = format!(
        "{stage}|scale={:016x}|seed={}|sources={}|tmax={}|gv={}",
        cfg.scale.to_bits(),
        cfg.seed,
        cfg.sources,
        cfg.t_max,
        socmix_gen::GENERATOR_VERSION
    );
    let mut h = 0xcbf29ce484222325u64;
    for &b in canonical.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("socmix-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Builds N trivial stages; each records how often it ran.
    fn counting_stages<'a>(
        n: usize,
        runs: &'a [AtomicUsize],
        deps: impl Fn(usize) -> Vec<usize>,
    ) -> Vec<StageDef<'a>> {
        (0..n)
            .map(|i| StageDef {
                name: format!("stage{i}"),
                deps: deps(i),
                config_hash: 1000 + i as u64,
                run: Box::new(move |out: &mut String| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    out.push_str(&format!("output of stage {i}\n"));
                }),
            })
            .collect()
    }

    fn collect_output(
        stages: &[StageDef<'_>],
        opts: &PipelineOptions,
    ) -> (String, Vec<StageOutcome>) {
        let out = Mutex::new(String::new());
        let outcomes = run_pipeline(stages, opts, &|s| out.lock().unwrap().push_str(s), &|_| {});
        (out.into_inner().unwrap(), outcomes)
    }

    #[test]
    fn serial_and_parallel_output_is_byte_identical() {
        let runs: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(8, &runs, |_| vec![]);
        let serial = collect_output(
            &stages,
            &PipelineOptions {
                jobs: 1,
                out_dir: None,
                resume: false,
                fresh: false,
            },
        )
        .0;
        for jobs in [2, 4, 8] {
            let parallel = collect_output(
                &stages,
                &PipelineOptions {
                    jobs,
                    out_dir: None,
                    resume: false,
                    fresh: false,
                },
            )
            .0;
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
        // canonical order regardless of completion order
        assert!(serial.starts_with("output of stage 0\n"));
        assert!(serial.ends_with("output of stage 7\n"));
    }

    #[test]
    fn stamps_are_written_and_resume_skips() {
        let dir = temp_dir("resume");
        let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(3, &runs, |_| vec![]);
        let opts = PipelineOptions {
            jobs: 2,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        let (first, outcomes) = collect_output(&stages, &opts);
        assert!(outcomes.iter().all(|o| !o.resumed));
        assert!(outcomes.iter().all(|o| o.output_path.is_some()));
        assert!(dir.join("stage1.stamp.json").is_file());
        assert!(dir.join("stage1.txt").is_file());

        // resumed run: nothing executes, output replays byte-identically
        let opts2 = PipelineOptions {
            resume: true,
            ..opts.clone()
        };
        let (second, outcomes2) = collect_output(&stages, &opts2);
        assert_eq!(first, second);
        assert!(outcomes2.iter().all(|o| o.resumed));
        for r in &runs {
            assert_eq!(r.load(Ordering::SeqCst), 1, "stage must not re-run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ignores_stale_config_hash() {
        let dir = temp_dir("stale");
        let runs: Vec<AtomicUsize> = (0..1).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(1, &runs, |_| vec![]);
        let opts = PipelineOptions {
            jobs: 1,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        collect_output(&stages, &opts);
        // same name, different config hash: stamp must not match
        let changed: Vec<StageDef> = vec![StageDef {
            name: "stage0".into(),
            deps: vec![],
            config_hash: 999,
            run: Box::new(|out| {
                out.push_str("new output\n");
            }),
        }];
        let (text, outcomes) = collect_output(
            &changed,
            &PipelineOptions {
                resume: true,
                ..opts
            },
        );
        assert!(!outcomes[0].resumed);
        assert_eq!(text, "new output\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_deletes_stamps_and_reruns() {
        let dir = temp_dir("fresh");
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(2, &runs, |_| vec![]);
        let base = PipelineOptions {
            jobs: 1,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        collect_output(&stages, &base);
        collect_output(
            &stages,
            &PipelineOptions {
                fresh: true,
                ..base.clone()
            },
        );
        for r in &runs {
            assert_eq!(r.load(Ordering::SeqCst), 2, "fresh must re-run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stamp_falls_back_to_running() {
        let dir = temp_dir("corrupt-stamp");
        let runs: Vec<AtomicUsize> = (0..1).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(1, &runs, |_| vec![]);
        let opts = PipelineOptions {
            jobs: 1,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        collect_output(&stages, &opts);
        std::fs::write(dir.join("stage0.stamp.json"), "{not json").unwrap();
        let (_, outcomes) = collect_output(
            &stages,
            &PipelineOptions {
                resume: true,
                ..opts
            },
        );
        assert!(!outcomes[0].resumed);
        assert_eq!(runs[0].load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_output_file_invalidates_stamp() {
        let dir = temp_dir("missing-output");
        let runs: Vec<AtomicUsize> = (0..1).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(1, &runs, |_| vec![]);
        let opts = PipelineOptions {
            jobs: 1,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        collect_output(&stages, &opts);
        std::fs::remove_file(dir.join("stage0.txt")).unwrap();
        let (_, outcomes) = collect_output(
            &stages,
            &PipelineOptions {
                resume: true,
                ..opts
            },
        );
        assert!(!outcomes[0].resumed, "stamp without output must not resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dependencies_gate_scheduling_not_output_order() {
        // stage 0 depends on stage 2: output must still print 0,1,2
        let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let stages = counting_stages(3, &runs, |i| if i == 0 { vec![2] } else { vec![] });
        for jobs in [1, 3] {
            let (text, _) = collect_output(
                &stages,
                &PipelineOptions {
                    jobs,
                    out_dir: None,
                    resume: false,
                    fresh: false,
                },
            );
            assert_eq!(
                text,
                "output of stage 0\noutput of stage 1\noutput of stage 2\n"
            );
        }
    }

    #[test]
    fn partial_run_resumes_only_stamped_stages() {
        // simulate an interrupted run: stamp stage0 only, then resume
        // a full run — stage0 replays, stage1 executes
        let dir = temp_dir("partial");
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let all = counting_stages(2, &runs, |_| vec![]);
        let first_only = &all[..1];
        let opts = PipelineOptions {
            jobs: 1,
            out_dir: Some(dir.clone()),
            resume: false,
            fresh: false,
        };
        let out = Mutex::new(String::new());
        run_pipeline(
            first_only,
            &opts,
            &|s| out.lock().unwrap().push_str(s),
            &|_| {},
        );
        let (text, outcomes) = collect_output(
            &all,
            &PipelineOptions {
                resume: true,
                ..opts
            },
        );
        assert!(outcomes[0].resumed);
        assert!(!outcomes[1].resumed);
        assert_eq!(text, "output of stage 0\noutput of stage 1\n");
        assert_eq!(runs[0].load(Ordering::SeqCst), 1);
        assert_eq!(runs[1].load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_separates_all_inputs() {
        let base = crate::RunConfig::default();
        let h = |cfg: &crate::RunConfig, stage: &str| stage_config_hash(cfg, stage);
        let b = h(&base, "fig1");
        assert_ne!(b, h(&base, "fig2"), "stage name");
        assert_ne!(
            b,
            h(
                &crate::RunConfig {
                    scale: 0.06,
                    ..base.clone()
                },
                "fig1"
            ),
            "scale"
        );
        assert_ne!(
            b,
            h(
                &crate::RunConfig {
                    seed: 8,
                    ..base.clone()
                },
                "fig1"
            ),
            "seed"
        );
        assert_ne!(
            b,
            h(
                &crate::RunConfig {
                    sources: 100,
                    ..base.clone()
                },
                "fig1"
            ),
            "sources"
        );
        assert_ne!(
            b,
            h(
                &crate::RunConfig {
                    t_max: 100,
                    ..base.clone()
                },
                "fig1"
            ),
            "t_max"
        );
        // flags that do NOT affect stage output must not invalidate
        assert_eq!(
            b,
            h(
                &crate::RunConfig {
                    quiet: true,
                    stage_jobs: Some(2),
                    metrics: Some("/tmp/m.json".into()),
                    ..base.clone()
                },
                "fig1"
            )
        );
    }
}
