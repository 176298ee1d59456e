//! `spectral`: one SLEM solve, `Slem::auto(&g).seed(s).estimate()`, on
//! Physics 2 at paper scale — Table 1's method and the call `/mix`
//! makes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_core::{Slem, SlemEstimate};
use socmix_gen::Dataset;
use socmix_graph::Graph;
use socmix_linalg::{lanczos_extreme, DeflatedOp, LanczosOptions, LinearOp, SymmetricWalkOp};
use socmix_markov::ergodicity;
use socmix_par::Pool;

use crate::calib::{normalise, Calibration};
use crate::stats::{median, ms, us};
use crate::trace::{layer_self_ms, layer_sum_check, Tracer, PAIRED_TOL};
use crate::{mix_seed, peak_rss_mb, refs, run_for, Report, RunCfg, Setups};

const DATASET: Dataset = Dataset::Physics2;
const SCALE: f64 = 1.0;
/// Set-ups after each solve; one per graph comes before the first.
const SETUPS_PER_OP: usize = 1;
/// Fewest solves a run measures, even past `--seconds`: two per graph.
const MIN_SOLVES: usize = 8;
/// The library's cross-precision contract on µ.
const MU_TOL: f64 = 1e-6;

/// The Lanczos start seed of the `i`-th solve of a run.
fn start_seed(seed: u64, i: u64) -> u64 {
    mix_seed(seed, i.wrapping_add(0x5eed_0000))
}

fn check(r: &Result<SlemEstimate, socmix_core::SlemError>, mu_ref: f64) -> Result<(), String> {
    match r {
        Ok(est) if !est.converged => Err(format!("solve did not converge (mu {})", est.mu)),
        Ok(est) if (est.mu - mu_ref).abs() > MU_TOL => Err(format!(
            "mu {} is {:.3e} from the reference {mu_ref}",
            est.mu,
            (est.mu - mu_ref).abs()
        )),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("solve failed: {e}")),
    }
}

/// Generates the graph and builds the estimator.
fn set_up(gseed: u64, seed: u64, setups: &mut Setups) -> Graph {
    let t = Instant::now();
    let g = DATASET.generate(SCALE, gseed);
    let generated = t.elapsed();
    black_box(Slem::auto(&g).seed(start_seed(seed, 0)));
    setups.total_s.push(t.elapsed().as_secs_f64());
    setups.gen_ms.push(ms(generated));
    g
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    // Every run solves the four reference graphs in turn, from the one
    // its seed picks (see `refs`).
    let refs = refs::rotation(cfg.seed);
    let mut rep = Report::default();
    rep.notes.push(format!(
        "{} at scale {SCALE}, graph seeds {:?} in turn",
        DATASET.name(),
        refs.iter().map(|&(gseed, _)| gseed).collect::<Vec<_>>()
    ));

    // The calibration kernel is timed before each set-up and each
    // solve; the median of its timings normalises the run's timings.
    let mut cal = Calibration::new();
    let mut kernels = Vec::new();
    let mut setups = Setups::default();
    let mut graphs = Vec::new();
    for &(gseed, _) in &refs {
        kernels.push(cal.time_ms());
        graphs.push(set_up(gseed, cfg.seed, &mut setups));
    }
    for (g, (gseed, _)) in graphs.iter().zip(&refs) {
        rep.notes.push(format!(
            "graph seed {gseed}: {} nodes, {} edges",
            g.num_nodes(),
            g.num_edges()
        ));
    }

    // Warm-up: spawns the pool's workers and fills the scratch buffers.
    black_box(
        Slem::auto(&graphs[0])
            .seed(start_seed(cfg.seed, u64::MAX))
            .estimate(),
    )
    .map_err(|e| format!("warm-up solve failed: {e}"))?;

    if cfg.trace {
        traced(cfg, &graphs[0], refs[0], &mut setups, &mut rep);
        return Ok(rep);
    }

    // One median per graph: their solves cost different amounts, so a
    // median over the mixture would fall in the gap between them.
    let mut lat = vec![Vec::new(); graphs.len()];
    let end = Instant::now() + run_for(cfg);
    let mut i = 0;
    while i < MIN_SOLVES || Instant::now() < end {
        let k = i % graphs.len();
        let (gseed, mu_ref) = refs[k];
        kernels.push(cal.time_ms());
        let t = Instant::now();
        let r = black_box(
            Slem::auto(&graphs[k])
                .seed(start_seed(cfg.seed, i as u64))
                .estimate(),
        );
        lat[k].push(ms(t.elapsed()));
        rep.outcome(check(&r, mu_ref));
        for _ in 0..SETUPS_PER_OP {
            black_box(set_up(gseed, cfg.seed, &mut setups));
        }
        i += 1;
    }
    // The mean of the graphs' median solves.
    let latency = lat.iter().map(|l| median(l)).sum::<f64>() / lat.len() as f64;
    let (setup, kernel) = (median(&setups.total_s), median(&kernels));
    let (n_setups, n) = (setups.total_s.len(), i);
    rep.metric("setup_s", normalise(setup, kernel), "s", n_setups);
    rep.metric("latency_ms", normalise(latency, kernel), "ms", n);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.metric("setup_raw_s", setup, "s", n_setups);
    rep.metric("latency_raw_ms", latency, "ms", n);
    rep.metric("calib_kernel_ms", kernel, "ms", kernels.len());
    Ok(rep)
}

/// `LinearOp` wrapper that records a span around every apply.
struct Timed<'t, Op> {
    inner: Op,
    tracer: &'t Tracer,
}

impl<Op: LinearOp> LinearOp for Timed<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _span = self.tracer.span("linalg.spmv");
        self.inner.apply(x, y);
    }
}

/// What `Slem::estimate` does for a connected graph of at most 200k
/// nodes (the Lanczos backend), rebuilt from the same public calls
/// with a span around each.
fn replica(g: &Graph, seed: u64, tracer: &Tracer) -> Result<(f64, usize), String> {
    let _root = tracer.span("core.slem");
    let erg = {
        let _s = tracer.span("markov.ergodicity");
        ergodicity(g)
    };
    if !erg.connected {
        return Err("graph is disconnected".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (sop, basis) = {
        let _s = tracer.span("linalg.op_setup");
        let sop = SymmetricWalkOp::with_pool(g, Pool::new());
        let basis = vec![sop.top_eigenvector()];
        (sop, basis)
    };
    let defl = {
        let _s = tracer.span("linalg.op_setup");
        DeflatedOp::new(sop, &basis)
    };
    let timed = Timed {
        inner: defl,
        tracer,
    };
    let r = {
        let _s = tracer.span("linalg.lanczos");
        lanczos_extreme(&timed, LanczosOptions::default(), &mut rng)
    };
    Ok((r.top.max(-r.bottom).clamp(0.0, 1.0), r.iterations))
}

/// Median time of one deflated apply on `pool`, in µs.
fn apply_us(g: &Graph, pool: Pool, reps: usize) -> f64 {
    let sop = SymmetricWalkOp::with_pool(g, pool);
    let basis = vec![sop.top_eigenvector()];
    let op = DeflatedOp::new(sop, &basis);
    let x: Vec<f64> = (0..g.num_nodes()).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; g.num_nodes()];
    op.apply(&x, &mut y);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            op.apply(black_box(&x), &mut y);
            black_box(&y);
            us(t.elapsed())
        })
        .collect();
    median(&times)
}

fn traced(
    cfg: &RunCfg,
    g: &Graph,
    (gseed, mu_ref): (u64, f64),
    setups: &mut Setups,
    rep: &mut Report,
) {
    let tracer = Tracer::new(Instant::now(), 0);
    let mut untraced = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let mut iters = Vec::new();
    let mut mismatch = None;
    let end = Instant::now() + run_for(cfg);
    let mut i = 0;
    // Untraced `Slem::estimate` and the traced replica alternate, so
    // the two see the same machine state.
    while (untraced.len() < MIN_SOLVES || Instant::now() < end) && mismatch.is_none() {
        let seed = start_seed(cfg.seed, i);
        let t = Instant::now();
        let r = black_box(Slem::auto(g).seed(seed).estimate());
        untraced.insert(i, ms(t.elapsed()));
        rep.outcome(check(&r, mu_ref));

        tracer.set_op(i);
        let t = Instant::now();
        let replica = replica(g, seed, &tracer);
        traced_ms.push(ms(t.elapsed()));
        match (&r, replica) {
            (Ok(est), Ok((mu, it))) if est.mu.to_bits() == mu.to_bits() => iters.push(it as f64),
            (est, got) => {
                mismatch = Some(format!(
                    "replica disagrees with Slem::estimate on solve {i}: {:?} vs {got:?}",
                    est.as_ref().map(|e| e.mu)
                ))
            }
        }
        for _ in 0..SETUPS_PER_OP {
            black_box(set_up(gseed, cfg.seed, setups));
        }
        i += 1;
    }

    let spans = tracer.into_spans();
    let per_op = layer_self_ms(&spans);
    let layer = |name: &str| -> Vec<f64> {
        per_op
            .values()
            .map(|l| l.get(name).copied().unwrap_or(0.0))
            .collect()
    };
    let n = untraced.len();
    let spmv: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "linalg.spmv")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let nodes = g.num_nodes() as f64;
    // Computed, not measured: CSR offsets and targets, the input and
    // output vectors and the degree scaling read once per apply.
    let spmv_bytes = 8.0 * (nodes + 1.0) + 4.0 * g.total_degree() as f64 + 3.0 * 8.0 * nodes;
    let untraced_ms: Vec<f64> = untraced.values().copied().collect();

    rep.metric(
        "gen.generate_ms",
        median(&setups.gen_ms),
        "ms",
        setups.gen_ms.len(),
    );
    let serial = apply_us(g, Pool::serial(), 200);
    let pooled = apply_us(g, Pool::new(), 200);
    rep.metric("par.serial_ms", serial / 1e3, "ms", 200);
    rep.metric("par.pool_ms", pooled / 1e3, "ms", 200);
    rep.metric("par.pool_speedup", serial / pooled, "ratio", 200);
    rep.metric("core.slem_estimate_ms", median(&untraced_ms), "ms", n);
    rep.metric("linalg.spmv_bytes", spmv_bytes, "bytes", 1);
    rep.spans = spans;
    if let Some(why) = mismatch {
        // The replica no longer mirrors the library call, so its spans
        // say nothing about where `Slem::estimate` spends its time.
        rep.unattributed(REPLICA_METRICS, why);
        return;
    }
    rep.metric(
        "markov.ergodicity_ms",
        median(&layer("markov.ergodicity")),
        "ms",
        n,
    );
    rep.metric(
        "linalg.op_setup_ms",
        median(&layer("linalg.op_setup")),
        "ms",
        n,
    );
    rep.metric("linalg.lanczos_iters", median(&iters), "count", n);
    rep.metric(
        "linalg.lanczos_self_ms",
        median(&layer("linalg.lanczos")),
        "ms",
        n,
    );
    rep.metric("linalg.spmv_us", median(&spmv), "us", spmv.len());
    rep.metric(
        "linalg.spmv_applies",
        spmv.len() as f64 / n as f64,
        "count",
        n,
    );
    // The replica's layers are checked against the paired untraced
    // `Slem::estimate`: what they leave unexplained is the library
    // call's own time outside its measured children.
    let check = layer_sum_check(&per_op, "core.slem", &untraced, PAIRED_TOL);
    rep.metric("core.slem_self_ms", check.residual_ms(), "ms", n);
    rep.metric(
        "obs.trace_overhead_frac",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
        "fraction",
        n,
    );
    rep.layer_sum(&check, "solves");
}

/// The per-layer metrics the replica's spans give.
const REPLICA_METRICS: &[&str] = &[
    "markov.ergodicity_ms",
    "linalg.op_setup_ms",
    "linalg.lanczos_iters",
    "linalg.lanczos_self_ms",
    "linalg.spmv_us",
    "linalg.spmv_applies",
    "core.slem_self_ms",
    "obs.trace_overhead_frac",
    "trace.unattributed_frac",
];
