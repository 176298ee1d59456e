//! Bench: the O(m) sparse walk-operator kernels that every
//! measurement in the workspace reduces to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use socmix_gen::Dataset;
use socmix_linalg::{LinearOp, SymmetricWalkOp, WalkOp};
use socmix_par::Pool;

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec");
    for (label, scale) in [("10k", 0.01), ("50k", 0.05)] {
        let g = Dataset::FacebookA.generate(scale, 7);
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        group.throughput(Throughput::Elements(g.total_degree() as u64));

        let walk = WalkOp::with_pool(&g, Pool::serial());
        group.bench_with_input(BenchmarkId::new("walk_serial", label), &x, |b, x| {
            let mut y = vec![0.0; n];
            b.iter(|| walk.apply(x, &mut y));
        });

        let walk_par = WalkOp::new(&g);
        group.bench_with_input(BenchmarkId::new("walk_parallel", label), &x, |b, x| {
            let mut y = vec![0.0; n];
            b.iter(|| walk_par.apply(x, &mut y));
        });

        let walk_pers = WalkOp::with_pool(&g, Pool::with_threads(8));
        group.bench_with_input(BenchmarkId::new("walk_persistent8", label), &x, |b, x| {
            let mut y = vec![0.0; n];
            b.iter(|| walk_pers.apply(x, &mut y));
        });

        let sym = SymmetricWalkOp::with_pool(&g, Pool::serial());
        group.bench_with_input(BenchmarkId::new("symmetric_serial", label), &x, |b, x| {
            let mut y = vec![0.0; n];
            b.iter(|| sym.apply(x, &mut y));
        });

        let sym_pers = SymmetricWalkOp::with_pool(&g, Pool::with_threads(8));
        group.bench_with_input(
            BenchmarkId::new("symmetric_persistent8", label),
            &x,
            |b, x| {
                let mut y = vec![0.0; n];
                b.iter(|| sym_pers.apply(x, &mut y));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matvec
}
criterion_main!(benches);
