//! Bench: the persistent worker-pool runtime against running serially.
//! Two numbers are tracked here:
//!
//! 1. **Dispatch overhead** — the fixed cost of fanning a trivially
//!    small body out to 8 threads: the runtime resets a recycled job
//!    header and wakes parked workers.
//! 2. **End-to-end SLEM** — the dispatch cost summed over the operator
//!    applies of a power-iteration SLEM run on the 100k-node Facebook A
//!    stand-in.

use criterion::{criterion_group, criterion_main, Criterion};
use socmix_core::Slem;
use socmix_gen::Dataset;
use socmix_linalg::PowerOptions;
use socmix_par::Pool;
use std::hint::black_box;

fn bench_dispatch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    // A body small enough that dispatch dominates: 256 elements split
    // across 8 threads' worth of chunks is a few ns of real work.
    const N: usize = 256;
    let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let mut out = vec![0.0; N];

    let serial = Pool::serial();
    group.bench_function("tiny_body_serial", |b| {
        b.iter(|| {
            serial.for_each_chunk(&mut out, 1, |range, rows| {
                black_box((&data[range], rows));
            })
        })
    });

    let persistent = Pool::with_threads(8);
    group.bench_function("tiny_body_persistent8", |b| {
        b.iter(|| {
            persistent.for_each_chunk(&mut out, 1, |range, rows| {
                black_box((&data[range], rows));
            })
        })
    });
    group.finish();
}

fn bench_slem_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("slem_e2e");
    // 100_000 nodes, ~1M edges — the scale of the paper's larger
    // datasets. Iterations capped so one sample is a fixed 120 applies
    // of the deflated symmetric walk operator.
    let g = Dataset::FacebookA.generate(0.1, 7);
    let opts = PowerOptions {
        max_iter: 120,
        tol: 0.0,
    };
    group.sample_size(10);

    group.bench_function("power_120it_100k_serial", |b| {
        b.iter(|| {
            Slem::power_iteration(&g)
                .power_options(opts)
                .pool(Pool::serial())
                .estimate()
                .unwrap()
        })
    });
    group.bench_function("power_120it_100k_persistent8", |b| {
        b.iter(|| {
            Slem::power_iteration(&g)
                .power_options(opts)
                .pool(Pool::with_threads(8))
                .estimate()
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dispatch_overhead, bench_slem_end_to_end
}
criterion_main!(benches);
