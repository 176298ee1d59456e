//! Bench: the multi-process shard backend vs the shared-memory kernel
//! on the matvec loop that dominates every estimator — 120 walk
//! applications on a 100k-node graph, A/B interleaved.
//!
//! Hand-rolled so the variants can be interleaved: each round times
//! the shared-memory operator, then the 1-, 2-, and 4-shard process
//! groups once, so clock drift and cache state land on every variant
//! equally. Worker groups are spawned and loaded
//! **outside** the timed region — the bench measures the steady-state
//! exchange rounds, not process startup. Statistics across rounds go
//! to `BENCH_shard.json` (override with `SOCMIX_BENCH_JSON`) in the
//! same record format as the criterion stub's `BENCH_*.json`.

use std::io::Write as _;
use std::time::Instant;

use socmix_gen::Dataset;
use socmix_linalg::{contiguous_labels, DistributedOp, LinearOp, WalkOp};

/// Applications per timed sample: enough rounds that per-round
/// overheads (frame headers, syscalls) are measured in steady state.
const APPLIES: usize = 120;
const ROUNDS: usize = 7;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn probe_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect()
}

fn main() {
    // Must precede everything: this binary re-enters itself as the
    // shard worker for the groups it benchmarks.
    socmix_par::shard::worker_check();
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if let Some(f) = &filter {
        if !"matvec_loop/walk_120it_100k".contains(f.as_str()) {
            return;
        }
    }
    // 100_000 nodes, ~1M edges: the same scale as the kernel bench,
    // far outside cache, large enough that per-round protocol overhead
    // competes against real gather work.
    let g = Dataset::FacebookA.generate(0.1, 7);
    let n = g.num_nodes();
    let x0 = probe_vector(n);

    // All operators are built (and worker groups spawned + loaded)
    // before any timing starts.
    let local = WalkOp::new(&g);
    let dist: Vec<DistributedOp<'_>> = SHARD_COUNTS
        .iter()
        .map(|&k| {
            let labels = contiguous_labels(n, k);
            DistributedOp::walk(&g, &labels, k)
                .unwrap_or_else(|e| panic!("cannot build {k}-shard backend: {e}"))
        })
        .collect();
    let names: Vec<String> = std::iter::once("local".to_string())
        .chain(SHARD_COUNTS.iter().map(|k| format!("shard{k}")))
        .collect();

    // One timed sample: APPLIES ping-pong applications of y = xP.
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut run = |op: &dyn LinearOp| {
        x.copy_from_slice(&x0);
        for _ in 0..APPLIES {
            op.apply(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        std::hint::black_box(x[0]);
    };

    let ops: Vec<&dyn LinearOp> = std::iter::once(&local as &dyn LinearOp)
        .chain(dist.iter().map(|d| d as &dyn LinearOp))
        .collect();
    // one untimed warmup per variant to fault in pages and buffers
    for op in &ops {
        run(*op);
    }
    // times[round][variant]: each round times every variant once
    let mut times = vec![[0.0f64; 4]; ROUNDS];
    for round in times.iter_mut() {
        for (slot, op) in round.iter_mut().zip(&ops) {
            let start = Instant::now();
            run(*op);
            *slot = start.elapsed().as_secs_f64() * 1e9;
        }
    }
    let mut out = String::from("[\n");
    let mut medians = [0.0f64; 4];
    for (v, name) in names.iter().enumerate() {
        let mut t: Vec<f64> = times.iter().map(|row| row[v]).collect();
        t.sort_by(|a, b| a.total_cmp(b));
        let min = t[0];
        let median = t[ROUNDS / 2];
        let mean = t.iter().sum::<f64>() / ROUNDS as f64;
        medians[v] = median;
        println!(
            "matvec_loop/walk_120it_100k/{name:<6} time: [{:.2} ms {:.2} ms {:.2} ms]",
            min / 1e6,
            median / 1e6,
            mean / 1e6
        );
        out.push_str(&format!(
            "  {{\"id\":\"matvec_loop/walk_120it_100k/{name}\",\"min_ns\":{min:.1},\
             \"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{ROUNDS},\
             \"iters_per_sample\":1}}{}\n",
            if v + 1 == names.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    println!(
        "speedup vs local: shard1 {:.2}x, shard2 {:.2}x, shard4 {:.2}x",
        medians[0] / medians[1],
        medians[0] / medians[2],
        medians[0] / medians[3]
    );
    let path = std::env::var("SOCMIX_BENCH_JSON").unwrap_or_else(|_| "BENCH_shard.json".into());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
