//! `sampling`: the all-source TVD sweep at Figure 3's walk lengths on
//! Physics 1 at paper scale — the raw data of Figure 3, dominated by
//! the width-16 SpMM. It runs on a serial pool: on a shared 2-vCPU
//! machine the 2-thread pool's speed-up on this sweep swings between
//! 1.0× and 1.9× from run to run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socmix_core::probe::DEFAULT_BLOCK;
use socmix_core::MixingProbe;
use socmix_gen::Dataset;
use socmix_graph::{Graph, NodeId};
use socmix_linalg::{MultiLinearOp, WalkOp};
use socmix_markov::ergodic::WalkKind;
use socmix_markov::{BatchEvolver, Evolver};
use socmix_par::Pool;

use crate::calib::{normalise, Calibration};
use crate::stats::{median, ms, us};
use crate::trace::{layer_self_ms, layer_sum_check, Tracer, PAIRED_TOL};
use crate::{mix_seed, peak_rss_mb, run_for, Report, RunCfg, Setups};

const DATASET: Dataset = Dataset::Physics1;
const SCALE: f64 = 1.0;
/// Figure 3's walk lengths (`FIG3_LENGTHS`).
const LENGTHS: [usize; 5] = [1, 5, 10, 20, 40];
/// Set-ups before the first sweep, and after each sweep.
const SETUPS_FIRST: usize = 5;
const SETUPS_PER_OP: usize = 4;
/// Fewest sweeps a run measures, even past `--seconds`.
const MIN_SWEEPS: usize = 5;
/// Fewest traced/untraced sweep pairs of a traced run.
const MIN_TRACED_PAIRS: usize = 3;
/// Rows of each sweep checked against the serial evolver.
const CHECK_ROWS: usize = 16;
/// Blocks whose SpMMs a traced run times alone after each sweep.
const SPMM_BLOCKS: usize = 8;

/// Checks a seeded subset of a sweep's rows against serial
/// `Evolver::tvd_series` at the same lengths, bit for bit — the
/// batched evolver's exactness contract.
fn check(g: &Graph, evolver: &Evolver<'_>, rows: &[Vec<f64>], seed: u64) -> Result<(), String> {
    if rows.len() != g.num_nodes() {
        return Err(format!("{} rows for {} sources", rows.len(), g.num_nodes()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..CHECK_ROWS {
        let v: NodeId = rng.random_range(0..g.num_nodes() as NodeId);
        let series = evolver.tvd_series(v, *LENGTHS.last().expect("lengths"));
        let want: Vec<u64> = LENGTHS.iter().map(|&l| series[l - 1].to_bits()).collect();
        let got: Vec<u64> = rows[v as usize].iter().map(|x| x.to_bits()).collect();
        if got != want {
            return Err(format!("row {v} differs from the serial evolver"));
        }
    }
    Ok(())
}

/// Generates the graph and builds the probe.
fn set_up(seed: u64, setups: &mut Setups) -> Graph {
    let t = Instant::now();
    let g = DATASET.generate(SCALE, seed);
    let generated = t.elapsed();
    black_box(MixingProbe::new(&g).auto_kernel().pool(Pool::serial()));
    setups.total_s.push(t.elapsed().as_secs_f64());
    setups.gen_ms.push(ms(generated));
    g
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut rep = Report::default();
    // The calibration kernel is timed before each set-up and each
    // sweep; the median of its timings normalises the run's timings.
    let mut cal = Calibration::new();
    let mut kernels = Vec::new();
    let mut setups = Setups::default();
    let mut graph = None;
    for _ in 0..SETUPS_FIRST {
        kernels.push(cal.time_ms());
        graph = Some(set_up(cfg.seed, &mut setups));
    }
    let g = graph.expect("at least one set-up");
    let probe = MixingProbe::new(&g).auto_kernel().pool(Pool::serial());
    let kind = probe.walk_kind();
    let evolver = Evolver::with_kind(&g, kind);
    rep.notes.push(format!(
        "{} at scale {SCALE}, graph seed {}: {} nodes, {} edges, {kind:?} walk",
        DATASET.name(),
        cfg.seed,
        g.num_nodes(),
        g.num_edges()
    ));

    // Warm-up: one block fills this thread's scratch arena.
    let first: Vec<NodeId> = g.nodes().take(DEFAULT_BLOCK).collect();
    black_box(BatchEvolver::with_kind(&g, kind).tvd_at_lengths_block(&first, &LENGTHS));

    if cfg.trace {
        traced(cfg, &g, &probe, &evolver, &mut setups, &mut rep);
        return Ok(rep);
    }

    let mut lat = Vec::new();
    let end = Instant::now() + run_for(cfg);
    while lat.len() < MIN_SWEEPS || Instant::now() < end {
        kernels.push(cal.time_ms());
        let t = Instant::now();
        let rows = black_box(probe.all_sources_at_lengths(&LENGTHS));
        lat.push(ms(t.elapsed()));
        let sweep_seed = mix_seed(cfg.seed, lat.len() as u64);
        rep.outcome(check(&g, &evolver, &rows, sweep_seed));
        for _ in 0..SETUPS_PER_OP {
            black_box(set_up(cfg.seed, &mut setups));
        }
    }
    let (setup, latency, kernel) = (median(&setups.total_s), median(&lat), median(&kernels));
    let (n_setups, n) = (setups.total_s.len(), lat.len());
    rep.metric("setup_s", normalise(setup, kernel), "s", n_setups);
    rep.metric("latency_ms", normalise(latency, kernel), "ms", n);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.metric("setup_raw_s", setup, "s", n_setups);
    rep.metric("latency_raw_ms", latency, "ms", n);
    rep.metric("calib_kernel_ms", kernel, "ms", kernels.len());
    Ok(rep)
}

/// What `all_sources_at_lengths` does on a serial pool, rebuilt from
/// the same public calls with a span around each source block.
fn replica(g: &Graph, kind: WalkKind, tracer: &Tracer) -> Vec<Vec<f64>> {
    let _root = tracer.span("core.probe");
    let sources: Vec<NodeId> = g.nodes().collect();
    let be = BatchEvolver::with_kind(g, kind);
    let mut rows = Vec::with_capacity(sources.len());
    for block in sources.chunks(DEFAULT_BLOCK) {
        let _s = tracer.span("markov.block");
        rows.extend(be.tvd_at_lengths_block(block, &LENGTHS));
    }
    rows
}

/// Times each `apply_multi_raw` of one block's walk: width 16, from
/// point masses on `sources`, for as many steps as the sweep takes.
fn spmm_us(g: &Graph, sources: &[NodeId], out: &mut Vec<f64>) {
    let op = WalkOp::with_pool(g, Pool::serial());
    let (n, w) = (g.num_nodes(), DEFAULT_BLOCK);
    let mut xs = vec![0.0; n * w];
    let mut ys = vec![0.0; n * w];
    for (c, &s) in sources.iter().enumerate() {
        xs[s as usize * w + c] = 1.0;
    }
    for _ in 0..*LENGTHS.last().expect("lengths") {
        let t = Instant::now();
        op.apply_multi_raw(black_box(&xs), &mut ys, w, w);
        out.push(us(t.elapsed()));
        std::mem::swap(&mut xs, &mut ys);
    }
    black_box(&xs);
}

fn traced(
    cfg: &RunCfg,
    g: &Graph,
    probe: &MixingProbe<'_>,
    evolver: &Evolver<'_>,
    setups: &mut Setups,
    rep: &mut Report,
) {
    let tracer = Tracer::new(Instant::now(), 0);
    let mut untraced = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let mut mismatch = None;
    let mut spmm = Vec::new();
    let end = Instant::now() + run_for(cfg);
    let mut i = 0;
    while (untraced.len() < MIN_TRACED_PAIRS || Instant::now() < end) && mismatch.is_none() {
        let t = Instant::now();
        let rows = black_box(probe.all_sources_at_lengths(&LENGTHS));
        untraced.insert(i, ms(t.elapsed()));
        rep.outcome(check(g, evolver, &rows, mix_seed(cfg.seed, i)));

        tracer.set_op(i);
        let t = Instant::now();
        let replica = replica(g, probe.walk_kind(), &tracer);
        traced_ms.push(ms(t.elapsed()));
        if replica != rows {
            mismatch = Some(format!(
                "replica rows differ from all_sources_at_lengths on sweep {i}"
            ));
        }
        // A few blocks' SpMMs, timed alone between the sweeps.
        let mut rng = StdRng::seed_from_u64(mix_seed(cfg.seed, 0x5999 + i));
        for _ in 0..SPMM_BLOCKS {
            let first = rng.random_range(0..(g.num_nodes() - DEFAULT_BLOCK) as NodeId);
            let sources: Vec<NodeId> = (first..first + DEFAULT_BLOCK as NodeId).collect();
            spmm_us(g, &sources, &mut spmm);
        }
        for _ in 0..SETUPS_PER_OP {
            black_box(set_up(cfg.seed, setups));
        }
        i += 1;
    }

    rep.metric(
        "gen.generate_ms",
        median(&setups.gen_ms),
        "ms",
        setups.gen_ms.len(),
    );
    let t = Instant::now();
    black_box(
        MixingProbe::new(g)
            .auto_kernel()
            .pool(Pool::new())
            .all_sources_at_lengths(&LENGTHS),
    );
    let pooled = ms(t.elapsed());
    let untraced_ms: Vec<f64> = untraced.values().copied().collect();
    let serial = median(&untraced_ms);
    rep.metric("par.serial_ms", serial, "ms", untraced_ms.len());
    rep.metric("par.pool_ms", pooled, "ms", 1);
    rep.metric("par.pool_speedup", serial / pooled, "ratio", 1);
    rep.metric("linalg.spmm_us", median(&spmm), "us", spmm.len());

    rep.spans = tracer.into_spans();
    if let Some(why) = mismatch {
        rep.unattributed(REPLICA_METRICS, why);
        return;
    }
    let spans = &rep.spans;
    let per_op = layer_self_ms(spans);
    let n = untraced.len();
    let blocks: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "markov.block")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let block_ms = median(&blocks);
    let steps = *LENGTHS.last().expect("lengths") as f64;
    rep.metric("markov.block_ms", block_ms, "ms", blocks.len());
    rep.metric("markov.blocks", blocks.len() as f64 / n as f64, "count", n);
    // Estimated, not traced: the SpMM runs inside the block call.
    rep.metric(
        "linalg.spmm_share",
        steps * median(&spmm) / 1e3 / block_ms,
        "fraction",
        blocks.len(),
    );
    // The replica's blocks are checked against the paired untraced
    // sweep: what they leave unexplained is the library call's own
    // time outside its blocks.
    let check = layer_sum_check(&per_op, "core.probe", &untraced, PAIRED_TOL);
    rep.metric("core.probe_self_ms", check.residual_ms(), "ms", n);
    rep.metric(
        "obs.trace_overhead_frac",
        median(&traced_ms) / serial - 1.0,
        "fraction",
        n,
    );
    rep.layer_sum(&check, "sweeps");
}

/// The per-layer metrics the replica's spans give.
const REPLICA_METRICS: &[&str] = &[
    "markov.block_ms",
    "markov.blocks",
    "linalg.spmm_share",
    "core.probe_self_ms",
    "obs.trace_overhead_frac",
    "trace.unattributed_frac",
];
