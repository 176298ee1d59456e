//! `repro` — regenerates every table and figure of *Measuring the
//! Mixing Time of Social Graphs* (IMC 2010) on the synthetic dataset
//! catalog.
//!
//! ```text
//! repro [--scale S] [--seed N] [--sources K] [--tmax T] [--metrics PATH]
//!       [--trace PATH] [--cache-dir D | --no-cache] [--out-dir D]
//!       [--resume | --fresh] [--quiet] <command>
//!
//! commands:
//!   table1        dataset properties and second largest eigenvalues
//!   fig1          lower bound of mixing time — small datasets
//!   fig2          lower bound of mixing time — large datasets
//!   fig3          CDF of variation distance, short walks, physics (brute force)
//!   fig4          CDF of variation distance, long walks, physics (brute force)
//!   fig5          lower bound vs sampled percentiles, physics
//!   fig6          DBLP low-degree trimming: bound and average mixing
//!   fig7          sampling vs lower bound across BFS sample sizes
//!   fig8          SybilLimit honest admission rate vs walk length
//!   sybil-attack  (extension) sybil yield and escape probability vs g
//!   whanau        (extension) tail-edge uniformity vs true TVD (§2 critique)
//!   average       (extension) worst-case vs average-case vs coverage mixing time
//!   defenses      (extension) four Sybil defenses on a fast vs a slow graph
//!   sampler-bias  (extension) BFS vs walk vs forest-fire sampling bias on mu
//!   null-model    (extension) structure vs degree sequence: mu after rewiring
//!   ncp           (extension) network community profile minima per dataset
//!   all           everything above in order
//! ```
//!
//! Default `--scale 0.05` keeps the full suite laptop-sized; the
//! paper's sizes are `--scale 1.0`. Output is aligned tables plus
//! CSV blocks (marked `# csv`) for plotting.
//!
//! The harness is a cached, resumable, stage-parallel pipeline:
//! generated graphs are cached under `--cache-dir` (`results/cache`)
//! keyed by (dataset, scale, seed, generator version); `repro all`
//! runs up to `SOCMIX_THREADS` (at most 4) of its independent stages
//! at once; each completed stage writes its output and a stamp under
//! `--out-dir` (`results/stages`), so an interrupted run continues
//! with `--resume`. Stage outputs and stdout stage text are
//! byte-identical to a serial (`SOCMIX_THREADS=1`) run.

use socmix_bench::output::fmt_f64;
use socmix_bench::pipeline::{run_pipeline, stage_config_hash, PipelineOptions, StageDef};
use socmix_bench::{Csv, RunConfig, Table, CDF_POINTS, FIG3_LENGTHS, FIG4_LENGTHS, FIG8_LENGTHS};
use socmix_core::aggregate::{band_curves, percentile_curve, Cdf, PAPER_BANDS, WORST_CASE_RANK};
use socmix_core::trimming::trimming_experiment;
use socmix_core::{MixingBounds, MixingProbe, Slem, SlemEstimate};
use socmix_gen::{Dataset, GraphCache};
use socmix_graph::{sample, Graph};
use socmix_markov::dist::{edge_uniformity_tvd, separation_distance};
use socmix_markov::Evolver;
use socmix_sybil::experiment::{admission_experiment, sybil_yield_experiment};
use socmix_sybil::{attach_sybil_region, AttackParams, SybilTopology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set once in `main` from `--quiet`; gates every progress line.
static QUIET: AtomicBool = AtomicBool::new(false);

/// A progress line on stderr, suppressed by `--quiet`. Safe to call
/// from concurrently-running stages (lines may interleave between
/// stages, never within one line).
macro_rules! progress {
    ($($arg:tt)+) => {
        if !QUIET.load(Ordering::Relaxed) {
            eprintln!($($arg)+);
        }
    };
}

/// `println!` into a stage's output buffer.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)+) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)+);
    }};
}

/// Every subcommand, in the order `all` runs them.
const COMMANDS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "sybil-attack",
    "whanau",
    "average",
    "ncp",
    "defenses",
    "sampler-bias",
    "null-model",
];

/// Everything a stage needs: the run configuration and the (optional)
/// graph artifact cache. Shared by reference across stage threads.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    cfg: &'a RunConfig,
    cache: Option<&'a GraphCache>,
}

impl Ctx<'_> {
    /// Generates (or cache-loads) a catalog dataset at an explicit
    /// scale. Every stage's base-graph generation funnels through
    /// here, so a `(dataset, scale, seed)` is built once per cache
    /// lifetime, or once by each stage that misses it at the same
    /// time.
    fn gen_at(&self, ds: Dataset, scale: f64) -> Graph {
        match self.cache {
            Some(cache) => cache.load_or_generate(ds, scale, self.cfg.seed),
            None => ds.generate(scale, self.cfg.seed),
        }
    }

    /// Generates a catalog dataset at the run's default scale policy:
    /// physics sets boosted to the brute-force-friendly scale.
    fn gen(&self, ds: Dataset) -> Graph {
        self.gen_at(ds, default_scale(ds, self.cfg))
    }
}

/// The run's default scale for a dataset (physics sets boosted).
fn default_scale(ds: Dataset, cfg: &RunConfig) -> f64 {
    match ds {
        Dataset::Physics1 | Dataset::Physics2 | Dataset::Physics3 => cfg.physics_scale(),
        _ => cfg.scale,
    }
}

/// Runs one subcommand into `out`; `false` for an unknown name.
fn dispatch(cmd: &str, ctx: &Ctx<'_>, out: &mut String) -> bool {
    match cmd {
        "table1" => table1(ctx, out),
        "fig1" => fig12(ctx, out, Dataset::small_set(), "Figure 1 (small datasets)"),
        "fig2" => fig12(ctx, out, Dataset::large_set(), "Figure 2 (large datasets)"),
        "fig3" => fig34(ctx, out, &FIG3_LENGTHS, "Figure 3 (short walks)"),
        "fig4" => fig34(ctx, out, &FIG4_LENGTHS, "Figure 4 (long walks)"),
        "fig5" => fig5(ctx, out),
        "fig6" => fig6(ctx, out),
        "fig7" => fig7(ctx, out),
        "fig8" => fig8(ctx, out),
        "sybil-attack" => sybil_attack(ctx, out),
        "whanau" => whanau(ctx, out),
        "average" => average(ctx, out),
        "ncp" => ncp(ctx, out),
        "defenses" => defenses(ctx, out),
        "sampler-bias" => sampler_bias(ctx, out),
        "null-model" => null_model(ctx, out),
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, rest) = match RunConfig::parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    let Some(cmd) = rest.first() else {
        usage();
        std::process::exit(2);
    };
    QUIET.store(cfg.quiet, Ordering::Relaxed);
    let stage_names: Vec<&'static str> = if cmd == "all" {
        COMMANDS.to_vec()
    } else {
        match COMMANDS.iter().find(|&&c| c == cmd) {
            Some(&c) => vec![c],
            None => {
                eprintln!("unknown command {cmd:?}\n");
                usage();
                std::process::exit(2);
            }
        }
    };
    if cfg.metrics.is_some() {
        // count the run itself, not whatever module initialization ran
        // before main
        socmix_obs::set_metrics_enabled(true);
        socmix_obs::reset();
    }
    if cfg.trace.is_some() {
        socmix_obs::set_trace_enabled(true);
    }

    let cache = cfg.cache_dir.as_ref().map(GraphCache::at);
    let ctx = Ctx {
        cfg: &cfg,
        cache: cache.as_ref(),
    };
    let stages: Vec<StageDef<'_>> = stage_names
        .iter()
        .map(|&name| StageDef {
            name: name.to_string(),
            config_hash: stage_config_hash(&cfg, name),
            run: Box::new(move |out: &mut String| {
                dispatch(name, &ctx, out);
            }),
        })
        .collect();
    let opts = PipelineOptions {
        jobs: RunConfig::stage_jobs(),
        out_dir: Some(std::path::PathBuf::from(&cfg.out_dir)),
        resume: cfg.resume,
        fresh: cfg.fresh,
    };

    let t0 = Instant::now();
    let outcomes = run_pipeline(&stages, &opts, &|text| print!("{text}"), &|line| {
        progress!("{line}")
    });
    let total = t0.elapsed().as_secs_f64();

    // wall-clock footer (stdout, part of the reproducible record)
    println!();
    println!("--- wall clock ---");
    for o in &outcomes {
        if o.resumed {
            println!("{:<14} {:>9}", o.name, "resumed");
        } else {
            println!("{:<14} {:9.2}s", o.name, o.seconds);
        }
    }
    println!("{:<14} {total:9.2}s", "total");

    // Drain the trace before the manifest so `--metrics` condenses the
    // same event list that goes to disk.
    let trace_events: Option<Vec<socmix_obs::Value>> = cfg.trace.as_ref().map(|path| {
        let own = socmix_obs::trace::drain();
        let labels = socmix_obs::trace::thread_labels();
        let events = socmix_obs::export::chrome_events(&own, std::process::id() as u64, &labels);
        let dropped = socmix_obs::trace::dropped_events();
        if dropped > 0 {
            progress!("trace: ring buffers dropped {dropped} events (oldest first)");
        }
        let doc = socmix_obs::export::chrome_trace_document(events.clone());
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("error: could not write trace to {path}: {e}");
            std::process::exit(1);
        }
        progress!("wrote trace to {path}");
        events
    });

    if let Some(path) = &cfg.metrics {
        let events = cache.as_ref().map(|c| c.take_events());
        let manifest = socmix_bench::run_manifest(
            cmd,
            &cfg,
            &outcomes,
            total,
            &socmix_bench::git_describe(),
            events.as_deref(),
            &socmix_obs::snapshot(),
            trace_events.as_deref(),
        );
        if let Err(e) = std::fs::write(path, manifest.to_pretty()) {
            eprintln!("error: could not write metrics manifest to {path}: {e}");
            std::process::exit(1);
        }
        progress!("wrote metrics manifest to {path}");
    }
}

fn usage() {
    eprintln!(
        "usage: repro [--scale S] [--seed N] [--sources K] [--tmax T] [--metrics PATH]\n\
         \x20            [--trace PATH] [--cache-dir D | --no-cache] [--out-dir D]\n\
         \x20            [--resume | --fresh] [--quiet] <command>\n\
         commands: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 sybil-attack whanau average ncp defenses sampler-bias null-model all"
    );
}

fn banner(out: &mut String, title: &str, cfg: &RunConfig) {
    outln!(out);
    outln!(out, "=== {title} ===");
    outln!(
        out,
        "(scale {}, seed {}, sources {}, tmax {})",
        cfg.scale,
        cfg.seed,
        cfg.sources,
        cfg.t_max
    );
    outln!(out);
}

/// SLEM with the automatic backend; prints a warning on
/// non-convergence (the value is still a valid Ritz bound).
fn slem_of(g: &Graph, seed: u64, label: &str) -> SlemEstimate {
    let est = Slem::auto(g).seed(seed).estimate().unwrap_or_else(|e| {
        panic!("SLEM of {label}: {e}");
    });
    if !est.converged {
        progress!("note: SLEM of {label} not fully converged (residual bound reported)");
    }
    est
}

// ---------------------------------------------------------------- table 1

fn table1(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Table 1: datasets, properties, second largest eigenvalue",
        cfg,
    );
    let mut t = Table::new([
        "Dataset", "paper n", "paper m", "n", "m", "avg deg", "mu", "1-mu", "class",
    ]);
    for &ds in Dataset::all() {
        let g = ctx.gen(ds);
        let est = slem_of(&g, cfg.seed, ds.name());
        t.row([
            ds.name().to_string(),
            ds.paper_nodes().to_string(),
            ds.paper_edges().to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            format!("{:.2}", g.avg_degree()),
            format!("{:.6}", est.mu),
            fmt_f64(1.0 - est.mu),
            format!("{:?}", ds.mixing_class()),
        ]);
        progress!("table1: {} done", ds.name());
    }
    out.push_str(&t.render());
}

// ------------------------------------------------------------- figures 1/2

fn fig12(ctx: &Ctx<'_>, out: &mut String, set: &[Dataset], title: &str) {
    let cfg = ctx.cfg;
    banner(
        out,
        &format!("{title}: lower bound of the mixing time"),
        cfg,
    );
    // ε grid: 0.25 down to 1e-5, two points per decade
    let grid = socmix_core::bounds::epsilon_grid(0.25, 1e-5, 2);
    let mut csv = Csv::new(["dataset", "epsilon", "lower_bound_steps"]);
    let mut t = Table::new(["Dataset", "mu", "T(0.10) lo", "T(0.01) lo", "T(1/n) lo"]);
    for &ds in set {
        let g = ctx.gen(ds);
        let est = slem_of(&g, cfg.seed, ds.name());
        let b = MixingBounds::new(est.mu, g.num_nodes());
        for &eps in &grid {
            csv.push_row([
                ds.name().to_string(),
                format!("{eps:.3e}"),
                fmt_f64(b.lower(eps)),
            ]);
        }
        t.row([
            ds.name().to_string(),
            format!("{:.6}", est.mu),
            fmt_f64(b.lower(0.10)),
            fmt_f64(b.lower(0.01)),
            fmt_f64(b.lower_at_inverse_n()),
        ]);
        progress!("{title}: {} done", ds.name());
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(out, "# csv");
    out.push_str(&csv.render());
}

// ------------------------------------------------------------- figures 3/4

fn fig34(ctx: &Ctx<'_>, out: &mut String, lengths: &[usize], title: &str) {
    let cfg = ctx.cfg;
    banner(
        out,
        &format!("{title}: CDF of variation distance, every source brute-force"),
        cfg,
    );
    let mut csv = Csv::new(["dataset", "w", "cdf_fraction", "tvd"]);
    for &ds in &[Dataset::Physics1, Dataset::Physics2, Dataset::Physics3] {
        let g = ctx.gen(ds);
        let probe = MixingProbe::new(&g).auto_kernel();
        let rows = probe.all_sources_at_lengths(lengths);
        for (wi, &w) in lengths.iter().enumerate() {
            let sample: Vec<f64> = rows.iter().map(|r| r[wi]).collect();
            let cdf = Cdf::from_samples(sample);
            for &q in &CDF_POINTS {
                csv.push_row([
                    ds.name().to_string(),
                    w.to_string(),
                    format!("{q}"),
                    fmt_f64(cdf.quantile(q)),
                ]);
            }
        }
        progress!("{title}: {} ({} sources) done", ds.name(), g.num_nodes());
    }
    outln!(
        out,
        "# csv  (tvd value at each CDF fraction; one row per dataset x w x fraction)"
    );
    out.push_str(&csv.render());
}

// ---------------------------------------------------------------- figure 5

fn fig5(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Figure 5: lower bound vs sampled mixing, physics datasets (brute force)",
        cfg,
    );
    let report_ts: Vec<usize> = [1usize, 2, 5, 10, 20, 40, 80, 150, 300, 500]
        .into_iter()
        .filter(|&t| t <= cfg.t_max)
        .collect();
    let mut csv = Csv::new(["dataset", "t", "lower_bound_eps", "top99.9_eps", "mean_eps"]);
    for &ds in &[Dataset::Physics1, Dataset::Physics2, Dataset::Physics3] {
        let g = ctx.gen(ds);
        let est = slem_of(&g, cfg.seed, ds.name());
        let b = MixingBounds::new(est.mu, g.num_nodes());
        let probe = MixingProbe::new(&g).auto_kernel();
        let result = probe.all_sources(cfg.t_max);
        let worst = percentile_curve(&result, WORST_CASE_RANK);
        let mean = socmix_core::aggregate::mean_curve(&result);
        for &t in &report_ts {
            csv.push_row([
                ds.name().to_string(),
                t.to_string(),
                fmt_f64(b.epsilon_at_lower(t as f64)),
                fmt_f64(worst[t - 1]),
                fmt_f64(mean[t - 1]),
            ]);
        }
        progress!("fig5: {} done", ds.name());
    }
    outln!(
        out,
        "# csv  (epsilon achieved at walk length t: SLEM bound vs sampled curves)"
    );
    out.push_str(&csv.render());
}

// ---------------------------------------------------------------- figure 6

fn fig6(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(out, "Figure 6: DBLP low-degree trimming", cfg);
    let g = ctx.gen_at(Dataset::Dblp, cfg.scale);
    let levels = trimming_experiment(&g, &[1, 2, 3, 4, 5], cfg.sources, cfg.t_max, cfg.seed)
        .expect("DBLP stand-in is connected");
    let mut t = Table::new([
        "DBLP x",
        "nodes",
        "edges",
        "mu",
        "T(0.1) lo",
        "avg tvd@100",
        "avg tvd@500",
    ]);
    let mut csv = Csv::new(["min_degree", "t", "avg_tvd", "lower_bound_eps"]);
    for level in &levels {
        let b = level.bounds();
        let at = |tt: usize| {
            level
                .mean_tvd
                .get(tt.min(cfg.t_max) - 1)
                .copied()
                .unwrap_or(f64::NAN)
        };
        t.row([
            format!("DBLP {}", level.min_degree),
            level.nodes.to_string(),
            level.edges.to_string(),
            format!("{:.6}", level.slem.mu),
            fmt_f64(b.lower(0.1)),
            fmt_f64(at(100)),
            fmt_f64(at(500)),
        ]);
        for &tt in &[80usize, 100, 200, 300, 400, 500] {
            if tt <= cfg.t_max {
                csv.push_row([
                    level.min_degree.to_string(),
                    tt.to_string(),
                    fmt_f64(level.mean_tvd[tt - 1]),
                    fmt_f64(b.epsilon_at_lower(tt as f64)),
                ]);
            }
        }
        progress!("fig6: min degree {} done", level.min_degree);
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(out, "# csv");
    out.push_str(&csv.render());
}

// ---------------------------------------------------------------- figure 7

fn fig7(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Figure 7: sampling vs lower bound across BFS sample sizes",
        cfg,
    );
    // The paper BFS-samples 10K/100K/1000K nodes from each crawl; we
    // sample 1%, 10%, 100% of the scaled base graph.
    let fractions: [(f64, &str); 3] = [(0.01, "10K-eq"), (0.10, "100K-eq"), (1.0, "1000K-eq")];
    let sources = (cfg.sources / 4).max(50);
    let t_max = cfg.t_max.min(300);
    let mut csv = Csv::new([
        "dataset",
        "sample",
        "nodes",
        "mu",
        "t",
        "lower_bound_eps",
        "top10_eps",
        "median20_eps",
        "low10_eps",
    ]);
    let report_ts: Vec<usize> = [1usize, 5, 10, 20, 50, 100, 200, 300]
        .into_iter()
        .filter(|&t| t <= t_max)
        .collect();
    for &ds in &[
        Dataset::FacebookA,
        Dataset::FacebookB,
        Dataset::LivejournalA,
        Dataset::LivejournalB,
    ] {
        let base = ctx.gen_at(ds, cfg.scale);
        for &(frac, label) in &fractions {
            let target = ((base.num_nodes() as f64 * frac) as usize).max(200);
            let (sub, _) = sample::bfs_sample(&base, 0, target);
            let (g, _) = socmix_graph::components::largest_component(&sub);
            let est = slem_of(&g, cfg.seed, &format!("{ds} {label}"));
            let b = MixingBounds::new(est.mu, g.num_nodes());
            let probe = MixingProbe::new(&g).auto_kernel();
            let result = probe.probe_random_sources(sources, t_max, cfg.seed);
            let bands = band_curves(&result, &PAPER_BANDS);
            for &t in &report_ts {
                csv.push_row([
                    ds.name().to_string(),
                    label.to_string(),
                    g.num_nodes().to_string(),
                    format!("{:.6}", est.mu),
                    t.to_string(),
                    fmt_f64(b.epsilon_at_lower(t as f64)),
                    fmt_f64(bands[0].epsilon[t - 1]),
                    fmt_f64(bands[1].epsilon[t - 1]),
                    fmt_f64(bands[2].epsilon[t - 1]),
                ]);
            }
            progress!(
                "fig7: {} {} ({} nodes) done",
                ds.name(),
                label,
                g.num_nodes()
            );
        }
    }
    outln!(out, "# csv");
    out.push_str(&csv.render());
}

// ---------------------------------------------------------------- figure 8

fn fig8(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Figure 8: SybilLimit admission rate vs walk length",
        cfg,
    );
    let mut csv = Csv::new(["dataset", "w", "r", "accepted_frac", "intersection_frac"]);
    let mut datasets: Vec<(String, Graph)> = Vec::new();
    for &ds in &[Dataset::Physics1, Dataset::Physics2, Dataset::Physics3] {
        datasets.push((ds.name().to_string(), ctx.gen(ds)));
    }
    // the paper uses 10,000-node BFS samples of Facebook A and
    // Slashdot 1; we sample the equivalent fraction of our base
    for &ds in &[Dataset::FacebookA, Dataset::Slashdot1] {
        let base = ctx.gen_at(ds, cfg.scale);
        // clamp the sample target into [500, n]; tiny-scale runs where
        // the whole base graph is smaller than 500 just take all of it
        let target = (10_000.0 * cfg.scale * 10.0) as usize;
        let (sub, _) = sample::bfs_sample(&base, 0, target.max(500).min(base.num_nodes()));
        let (g, _) = socmix_graph::components::largest_component(&sub);
        datasets.push((format!("{} sample", ds.name()), g));
    }
    let mut bench_rows = Table::new(["dataset", "benchmarked w (95%)", "admission", "rounds"]);
    for (name, g) in &datasets {
        let pts = admission_experiment(g, 3.0, &FIG8_LENGTHS, cfg.sources, cfg.seed);
        for p in &pts {
            csv.push_row([
                name.to_string(),
                p.w.to_string(),
                p.r.to_string(),
                fmt_f64(p.accepted),
                fmt_f64(p.intersected),
            ]);
        }
        // the protocol's own benchmarking procedure (SybilLimit §4.3):
        // double w until the sampled admission hits the target
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let sample =
            socmix_graph::sample::random_nodes(g, cfg.sources.min(g.num_nodes()), &mut rng);
        let est = socmix_sybil::benchmark_walk_length(
            g,
            socmix_graph::sample::random_node(g, &mut rng),
            &sample,
            0.95,
            socmix_sybil::SybilLimitParams {
                r0: 3.0,
                w: 2,
                seed: cfg.seed,
                ..Default::default()
            },
            2048,
        );
        match est {
            Some(e) => bench_rows.row([
                name.to_string(),
                e.w.to_string(),
                format!("{:.1}%", 100.0 * e.admission),
                e.rounds.to_string(),
            ]),
            None => bench_rows.row([name.to_string(), "> 2048".into(), "-".into(), "-".into()]),
        }
        progress!("fig8: {name} done");
    }
    outln!(out, "# csv");
    out.push_str(&csv.render());
    outln!(out);
    outln!(
        out,
        "SybilLimit's own benchmarking procedure (doubling w to 95% admission):"
    );
    out.push_str(&bench_rows.render());
}

// ------------------------------------------------------ extension: attack

fn sybil_attack(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension: SybilLimit sybil yield and escape probability vs attack edges",
        cfg,
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let honest = ctx.gen_at(Dataset::Facebook, cfg.scale);
    let mut csv = Csv::new([
        "attack_edges",
        "w",
        "accepted_sybils",
        "per_attack_edge",
        "escape_prob",
    ]);
    for &g_edges in &[1usize, 5, 10, 20, 50] {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let attacked = attach_sybil_region(
            &honest,
            AttackParams {
                sybil_count: (honest.num_nodes() / 10).max(20),
                attack_edges: g_edges,
                topology: SybilTopology::Random { avg_degree: 6.0 },
            },
            &mut rng,
        );
        for &w in &[5usize, 10, 20] {
            let y = &sybil_yield_experiment(&attacked, 3.0, &[w], cfg.seed)[0];
            let esc = socmix_sybil::attack::escape_probability(&attacked, w, 5_000, &mut rng);
            csv.push_row([
                y.attack_edges.to_string(),
                w.to_string(),
                y.accepted_sybils.to_string(),
                fmt_f64(y.per_attack_edge),
                fmt_f64(esc),
            ]);
        }
        progress!("sybil-attack: g={g_edges} done");
    }
    outln!(out, "# csv");
    out.push_str(&csv.render());
}

// ------------------------------------------------------ extension: whanau

fn whanau(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension (critique in paper sec. 2): tail-edge uniformity vs true variation distance",
        cfg,
    );
    let mut csv = Csv::new(["dataset", "w", "tvd", "separation_dist", "edge_uniformity"]);
    for &ds in &[Dataset::Physics1, Dataset::WikiVote] {
        let g = ctx.gen(ds);
        let e = Evolver::new(&g);
        let source = 0;
        let mut x = socmix_markov::stationary::point_distribution(g.num_nodes(), source);
        let pi = e.stationary().to_vec();
        let mut w = 0usize;
        for &target in &[1usize, 5, 10, 20, 40, 80, 160] {
            while w < target {
                e.step(&mut x);
                w += 1;
            }
            csv.push_row([
                ds.name().to_string(),
                target.to_string(),
                fmt_f64(socmix_markov::total_variation(&x, &pi)),
                fmt_f64(separation_distance(&x, &pi)),
                fmt_f64(edge_uniformity_tvd(&g, &x)),
            ]);
        }
        progress!("whanau: {} done", ds.name());
    }
    outln!(
        out,
        "# csv  (edge-uniformity == tvd exactly — the histogram Whanau eyeballs"
    );
    outln!(
        out,
        "#       does measure the right quantity; the separation distance its"
    );
    outln!(
        out,
        "#       analysis uses is the much stricter column, which is why the"
    );
    outln!(
        out,
        "#       paper's sec. 2 finds the claimed walk lengths insufficient)"
    );
    out.push_str(&csv.render());
}

// ------------------------------------------------ extension: average case

fn average(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension (paper sec. 5/6): worst-case vs average-case vs coverage mixing time",
        cfg,
    );
    use socmix_core::average::{average_mixing_time, coverage_mixing_time};
    let mut t = Table::new([
        "Dataset",
        "eps",
        "worst T",
        "avg T",
        "90% coverage T",
        "50% coverage T",
    ]);
    for &ds in &[
        Dataset::WikiVote,
        Dataset::Physics1,
        Dataset::Enron,
        Dataset::Youtube,
    ] {
        let g = ctx.gen(ds);
        let probe = MixingProbe::new(&g).auto_kernel();
        let result = probe.probe_random_sources(cfg.sources, cfg.t_max * 4, cfg.seed);
        let eps = 0.1;
        let show = |o: Option<usize>| o.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
        t.row([
            ds.name().to_string(),
            format!("{eps}"),
            show(result.mixing_time(eps)),
            show(average_mixing_time(&result, eps)),
            show(coverage_mixing_time(&result, eps, 0.9)),
            show(coverage_mixing_time(&result, eps, 0.5)),
        ]);
        progress!("average: {} done", ds.name());
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(
        out,
        "(worst >= 90% coverage >= 50% coverage; avg tracks the bulk — the"
    );
    outln!(
        out,
        " paper's case for average-case models of the mixing time)"
    );
}

// ------------------------------------------------ extension: ncp

fn ncp(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension (paper sec. 3.2): network community profile minima vs SLEM",
        cfg,
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_community::{ncp_approx, ncp_minimum};
    let mut t = Table::new([
        "Dataset",
        "lambda2",
        "(1-l2)/2",
        "NCP min phi",
        "at size",
        "cheeger ok?",
    ]);
    for &ds in &[
        Dataset::WikiVote,
        Dataset::Physics1,
        Dataset::Dblp,
        Dataset::LivejournalA,
    ] {
        let g = ctx.gen(ds);
        let est = slem_of(&g, cfg.seed, ds.name());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let points = ncp_approx(&g, 40, 12, g.num_nodes() / 2, &mut rng);
        let best = ncp_minimum(&points).expect("nonempty NCP");
        // Cheeger, easy direction: Φ ≥ (1−λ₂)/2, and the NCP minimum
        // upper-bounds the true Φ, so (1−λ₂)/2 ≤ Φ_NCP must hold
        let lambda2 = est.lambda2.unwrap_or(est.mu);
        let gap_bound = (1.0 - lambda2) / 2.0;
        t.row([
            ds.name().to_string(),
            format!("{lambda2:.6}"),
            fmt_f64(gap_bound),
            fmt_f64(best.conductance),
            best.size.to_string(),
            if gap_bound <= best.conductance + 1e-9 {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
        progress!("ncp: {} done", ds.name());
    }
    out.push_str(&t.render());
}

// ------------------------------------------- extension: defense comparison

fn defenses(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension (Viswanath/sec. 2): four Sybil defenses, fast vs slow honest graph",
        cfg,
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_graph::NodeId;
    use socmix_sybil::sumup::{collect_votes, sybil_votes, SumUpParams};
    use socmix_sybil::sybilinfer::{sybilinfer, SybilInferParams};
    use socmix_sybil::{
        attach_sybil_region, pagerank_ranking, AttackParams, SybilLimit, SybilLimitParams,
        SybilTopology,
    };

    let mut t = Table::new([
        "graph",
        "defense",
        "honest utility",
        "sybil leakage",
        "metric",
    ]);
    for (label, honest) in [
        ("fast (Facebook)", ctx.gen_at(Dataset::Facebook, cfg.scale)),
        ("slow (Physics 3)", {
            let sc = (cfg.scale * 2.0).min(1.0);
            ctx.gen_at(Dataset::Physics3, sc)
        }),
    ] {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let attacked = attach_sybil_region(
            &honest,
            AttackParams {
                sybil_count: honest.num_nodes() / 5,
                attack_edges: 10,
                topology: SybilTopology::Random { avg_degree: 6.0 },
            },
            &mut rng,
        );
        let g = &attacked.graph;
        let verifier: NodeId = 0;
        let honest_suspects: Vec<NodeId> =
            (1..(cfg.sources as NodeId + 1).min(attacked.honest as NodeId)).collect();
        let sybil_suspects: Vec<NodeId> = attacked.sybil_nodes().collect();

        // SybilLimit at the defenses' canonical w=10
        let sl = SybilLimit::new(
            g,
            SybilLimitParams {
                r0: 3.0,
                w: 10,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        let hv = sl.verify_all(verifier, &honest_suspects);
        let sv = sl.verify_all(verifier, &sybil_suspects);
        t.row([
            label.to_string(),
            "SybilLimit w=10".to_string(),
            format!("{:.1}% admitted", 100.0 * hv.accepted_fraction()),
            format!("{} sybils", sv.accepted.iter().filter(|&&a| a).count()),
            "admission".to_string(),
        ]);
        progress!("defenses: {label} SybilLimit done");

        // SybilInfer marginals
        let si = sybilinfer(
            g,
            verifier,
            &SybilInferParams {
                walks_per_node: 5,
                walk_length: 10,
                mh_iterations: 40_000,
                samples: 150,
                prior_honest: 0.7,
                seed: cfg.seed,
            },
        );
        let avg = |range: std::ops::Range<usize>| {
            let len = range.len() as f64;
            range.map(|v| si.p_honest[v]).sum::<f64>() / len
        };
        t.row([
            label.to_string(),
            "SybilInfer".to_string(),
            format!("{:.2} mean P(honest)", avg(0..attacked.honest)),
            format!(
                "{:.2} mean P(sybil side)",
                avg(attacked.honest..g.num_nodes())
            ),
            "marginals".to_string(),
        ]);
        progress!("defenses: {label} SybilInfer done");

        // PPR ranking (the Viswanath reduction)
        let e = pagerank_ranking(&attacked, verifier);
        t.row([
            label.to_string(),
            "PPR ranking".to_string(),
            format!("AUC {:.3}", e.auc),
            format!("{:.1}% precision@cut", 100.0 * e.precision_at_cutoff),
            "ranking".to_string(),
        ]);
        progress!("defenses: {label} ranking done");

        // SumUp votes
        let params = SumUpParams {
            rho: (honest_suspects.len() as f64 * 1.5) as usize,
        };
        let hv = collect_votes(g, verifier, &honest_suspects, params);
        let sv = sybil_votes(&attacked, verifier, params);
        t.row([
            label.to_string(),
            "SumUp".to_string(),
            format!("{:.1}% votes collected", 100.0 * hv.acceptance()),
            format!("{} sybil votes", sv.accepted),
            "votes".to_string(),
        ]);
        progress!("defenses: {label} SumUp done");
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(
        out,
        "(all four defenses degrade on the slow graph with the same attack"
    );
    outln!(
        out,
        " budget — the shared fast-mixing assumption the paper measures)"
    );
}

// ------------------------------------------ extension: sampler bias

fn sampler_bias(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension (paper footnote 3): sampling-method bias on the measured mu",
        cfg,
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut t = Table::new(["dataset", "sampler", "nodes", "mu", "full-graph mu"]);
    for &ds in &[Dataset::LivejournalA, Dataset::FacebookA] {
        let base = ctx.gen_at(ds, cfg.scale);
        let full_mu = slem_of(&base, cfg.seed, ds.name()).mu;
        let target = base.num_nodes() / 100;
        let samples: Vec<(&str, socmix_graph::Graph)> = vec![
            ("bfs", sample::bfs_sample(&base, 0, target).0),
            (
                "forest-fire",
                sample::forest_fire_sample(
                    &base,
                    0,
                    target,
                    0.6,
                    &mut StdRng::seed_from_u64(cfg.seed),
                )
                .0,
            ),
            (
                "random-walk",
                sample::walk_sample(
                    &base,
                    0,
                    target,
                    400 * target,
                    &mut StdRng::seed_from_u64(cfg.seed),
                )
                .0,
            ),
        ];
        for (name, sub) in samples {
            let (lcc, _) = socmix_graph::components::largest_component(&sub);
            if lcc.num_nodes() < 10 {
                continue;
            }
            let mu = slem_of(&lcc, cfg.seed, &format!("{ds} {name}")).mu;
            t.row([
                ds.name().to_string(),
                name.to_string(),
                lcc.num_nodes().to_string(),
                format!("{mu:.6}"),
                format!("{full_mu:.6}"),
            ]);
            progress!("sampler-bias: {} {} done", ds.name(), name);
        }
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(
        out,
        "(the paper's footnote: BFS biases samples toward faster mixing,"
    );
    outln!(
        out,
        " which only strengthens its slow-mixing conclusion — here the"
    );
    outln!(out, " bias is measurable against the alternative samplers)");
}

// --------------------------------------------- extension: null model

fn null_model(ctx: &Ctx<'_>, out: &mut String) {
    let cfg = ctx.cfg;
    banner(
        out,
        "Extension: is slow mixing structural? mu before/after degree-preserving rewiring",
        cfg,
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socmix_gen::rewire::degree_preserving_rewire;
    let mut t = Table::new([
        "dataset",
        "mu (original)",
        "mu (rewired null)",
        "T(0.1) orig",
        "T(0.1) null",
    ]);
    for &ds in &[
        Dataset::WikiVote,
        Dataset::Physics1,
        Dataset::Enron,
        Dataset::LivejournalA,
    ] {
        let scale = match ds {
            Dataset::LivejournalA => (cfg.scale / 2.5).max(0.005),
            Dataset::Physics1 => cfg.physics_scale(),
            _ => cfg.scale,
        };
        let g = ctx.gen_at(ds, scale);
        let mu = slem_of(&g, cfg.seed, ds.name()).mu;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let rewired = degree_preserving_rewire(&g, 10 * g.num_edges(), &mut rng);
        let (lcc, _) = socmix_graph::components::largest_component(&rewired);
        let mu_null = slem_of(&lcc, cfg.seed, &format!("{ds} null")).mu;
        let tt = |m: f64| {
            if m >= 1.0 {
                f64::INFINITY
            } else {
                m / (2.0 * (1.0 - m)) * 5f64.ln()
            }
        };
        t.row([
            ds.name().to_string(),
            format!("{mu:.6}"),
            format!("{mu_null:.6}"),
            fmt_f64(tt(mu)),
            fmt_f64(tt(mu_null)),
        ]);
        progress!("null-model: {} done", ds.name());
    }
    out.push_str(&t.render());
    outln!(out);
    outln!(
        out,
        "(the rewired graphs keep every node's degree but lose the community"
    );
    outln!(
        out,
        " structure; their mixing collapses to expander speed — slow mixing is"
    );
    outln!(out, " structural, not a degree-sequence artifact)");
}
