//! The metric names `BENCHMARK.json` declares, in its order.

/// End-to-end metrics, printed by every untraced run and gated.
pub const END_TO_END: [&str; 3] = ["setup_s", "latency_ms", "peak_rss_mb"];

/// End-to-end metrics an untraced run of `workload` prints but leaves
/// out of its result line: the percentile and throughput spread more
/// between runs of the same code on a shared 2-vCPU host than a 0.25
/// bound can gate, and the raw timings move with the host's speed
/// (see WORKLOADS.md).
pub fn reported(workload: &str) -> Vec<&'static str> {
    let mut names = match workload {
        "serve_open" => vec!["latency_p99_ms"],
        "serve_closed" => vec!["latency_p99_ms", "throughput_qps"],
        _ => Vec::new(),
    };
    names.extend(RAW);
    names
}

/// The raw timings behind the normalised `setup_s` and `latency_ms`,
/// and the calibration kernel's median time (see `calib`).
const RAW: [&str; 3] = ["setup_raw_s", "latency_raw_ms", "calib_kernel_ms"];

/// Per-layer metrics with their units, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("gen.generate_ms", "ms"),
    ("gen.cache_miss_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("markov.ergodicity_ms", "ms"),
    ("markov.block_ms", "ms"),
    ("markov.blocks", "count"),
    ("linalg.op_setup_ms", "ms"),
    ("linalg.lanczos_iters", "count"),
    ("linalg.lanczos_self_ms", "ms"),
    ("linalg.spmv_us", "us"),
    ("linalg.spmv_applies", "count"),
    ("linalg.spmv_bytes", "bytes"),
    ("linalg.spmm_us", "us"),
    ("linalg.spmm_share", "fraction"),
    ("linalg.escape_step_us", "us"),
    ("linalg.escape_step_w2_us", "us"),
    ("par.serial_ms", "ms"),
    ("par.pool_ms", "ms"),
    ("par.pool_speedup", "ratio"),
    ("par.jobs_dispatched", "count"),
    ("par.jobs_inline", "count"),
    ("par.worker_wakes", "count"),
    ("core.slem_self_ms", "ms"),
    ("core.slem_estimate_ms", "ms"),
    ("core.probe_self_ms", "ms"),
    ("sybil.verify_ms", "ms"),
    ("sybil.walks", "count"),
    ("serve.escape_ms", "ms"),
    ("serve.mix_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.compute_escape_ms", "ms"),
    ("serve.compute_mix_ms", "ms"),
    ("serve.compute_admit_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.overhead_admit_ms", "ms"),
    ("serve.batch_wait_us", "us"),
    ("serve.batch_width_mean", "count"),
    ("serve.http_parse_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.shed_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
    ("bench.send_late_p99_ms", "ms"),
    ("trace.unattributed_frac", "fraction"),
];
