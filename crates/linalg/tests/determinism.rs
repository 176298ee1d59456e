//! Cross-thread-count determinism of the operator kernels.
//!
//! The parallel contract of the workspace: pool width changes
//! wall-clock, never bits. Every operator chunks its output rows into
//! disjoint ranges and never reassociates a floating-point reduction
//! across chunks, so a 1-, 2-, 8-, or 32-thread pool must produce
//! byte-identical output — including when threads vastly outnumber
//! rows, and on degenerate graphs (no edges, a single edge).
//!
//! The multi-process backend extends the same contract across shard
//! counts (`SOCMIX_SHARDS=1/2/4` bit-for-bit equal to shared memory);
//! that half lives in `tests/shard_determinism.rs`, a harness-free
//! binary because its workers are fork/execs of the test executable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_gen::ba::barabasi_albert;
use socmix_graph::{Graph, GraphBuilder};
use socmix_linalg::{DeflatedOp, LinearOp, MultiLinearOp, MultiVec, SymmetricWalkOp, WalkOp};
use socmix_par::Pool;

/// Mildly irregular test graph: a BA preferential-attachment run,
/// large enough that every pool width actually splits it into
/// multiple chunks.
fn ba_graph() -> Graph {
    barabasi_albert(500, 3, &mut StdRng::seed_from_u64(42))
}

/// A deterministic but unstructured input vector.
fn probe_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect()
}

const WIDTHS: [usize; 4] = [1, 2, 8, 32];

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: row {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn walk_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial = WalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    for t in WIDTHS {
        let par = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "WalkOp");
    }
}

#[test]
fn symmetric_walk_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial = SymmetricWalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    for t in WIDTHS {
        let par = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "SymmetricWalkOp");
    }
}

#[test]
fn deflated_op_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let serial_sop = SymmetricWalkOp::with_pool(&g, Pool::serial());
    let basis = vec![serial_sop.top_eigenvector()];
    let serial = DeflatedOp::new(serial_sop, &basis).apply_vec(&x);
    for t in WIDTHS {
        let sop = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t));
        let par = DeflatedOp::new(sop, &basis).apply_vec(&x);
        assert_bitwise_eq(&serial, &par, "DeflatedOp");
    }
}

#[test]
fn apply_multi_bitwise_identical_across_pool_widths() {
    let g = ba_graph();
    let n = g.num_nodes();
    let width = 5;
    let mut x = MultiVec::zeros(n, width);
    for c in 0..width {
        let col: Vec<f64> = probe_vector(n).iter().map(|v| v * (c + 1) as f64).collect();
        x.set_column(c, &col);
    }
    let mut serial = MultiVec::zeros(n, width);
    WalkOp::with_pool(&g, Pool::serial()).apply_multi(&x, &mut serial, width);
    for t in WIDTHS {
        let mut par = MultiVec::zeros(n, width);
        WalkOp::with_pool(&g, Pool::with_threads(t)).apply_multi(&x, &mut par, width);
        assert_bitwise_eq(serial.as_slice(), par.as_slice(), "apply_multi");
    }
}

#[test]
fn oversubscribed_pool_on_tiny_graph() {
    // 32 threads on 3 rows: most workers must find nothing to claim
    // and the answer must not change.
    let g = GraphBuilder::from_edges([(0, 1), (1, 2)]).build();
    let x = vec![0.25, 0.5, 0.25];
    let serial = WalkOp::with_pool(&g, Pool::serial()).apply_vec(&x);
    let par = WalkOp::with_pool(&g, Pool::with_threads(32)).apply_vec(&x);
    assert_bitwise_eq(&serial, &par, "oversubscribed WalkOp");
}

#[test]
fn single_edge_graph_all_widths() {
    let g = GraphBuilder::from_edges([(0, 1)]).build();
    let x = vec![0.75, 0.25];
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(y, vec![0.25, 0.75]);
        let s = SymmetricWalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(s, vec![0.25, 0.75]);
    }
}

#[test]
fn edgeless_graph_all_widths() {
    // every node isolated: the walk drops all mass, on any pool
    let mut b = GraphBuilder::from_edges([]);
    b.grow_to(4);
    let g = b.build();
    let x = vec![0.25; 4];
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&x);
        assert_eq!(y, vec![0.0; 4]);
    }
}

#[test]
fn empty_graph_all_widths() {
    let g = Graph::empty(0);
    for t in WIDTHS {
        let y = WalkOp::with_pool(&g, Pool::with_threads(t)).apply_vec(&[]);
        assert!(y.is_empty());
    }
}

#[test]
fn spawn_dispatch_matches_persistent_bitwise() {
    // the spawn-per-call baseline uses the same chunk geometry, so
    // even it must agree bit-for-bit with the persistent runtime
    let g = ba_graph();
    let x = probe_vector(g.num_nodes());
    let persistent = WalkOp::with_pool(&g, Pool::with_threads(4)).apply_vec(&x);
    let spawned = WalkOp::with_pool(&g, Pool::with_threads(4).spawn_per_call()).apply_vec(&x);
    assert_bitwise_eq(&persistent, &spawned, "spawn vs persistent");
}
