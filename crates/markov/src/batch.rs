//! Blocked multi-source distribution evolution.
//!
//! [`Evolver`](crate::Evolver) answers per-source questions one O(m)
//! pass at a time; probing 1000 sources (or every node) repeats that
//! pass per source, re-streaming the whole edge array through cache
//! each time. [`BatchEvolver`] evolves a **block** of `B` sources
//! simultaneously: one CSR traversal serves all `B` columns
//! ([`MultiLinearOp::apply_multi_raw`]), two ping-pong blocks checked
//! out of the thread's scratch pool ([`with_scratch`]) alternate with
//! no per-step — and, across repeated probe calls, no per-call — heap
//! allocation, the per-column TVD-to-π is folded into the same pass
//! structure, and columns whose TVD has dropped below a retirement
//! threshold are swapped out of the active prefix so they stop paying
//! for steps.
//!
//! # Exactness
//!
//! Per column, every floating-point operation happens in the same
//! order as in the serial `Evolver`, so without retirement the batched
//! TVD series equals the serial series **bit for bit** (the
//! equivalence tests assert exact equality; public contracts promise
//! ≤ 1e-12). With retirement, entries after a column's ε-crossing are
//! padded with its crossing value — which never changes the first
//! crossing time, so Definition-1 mixing times are unaffected.

use crate::ergodic::WalkKind;
use crate::stationary::stationary_distribution;
use socmix_graph::{Graph, NodeId};
use socmix_linalg::workspace::with_scratch;
use socmix_linalg::{MultiLinearOp, WalkOp};
use socmix_obs::Counter;
use socmix_par::Pool;

/// Blocked `X ← X·P` steps performed (one per walk step per block).
static STEPS: Counter = Counter::new("markov.batch.steps");
/// Columns retired early because their TVD crossed the ε threshold —
/// each retirement saves that source the remaining walk steps.
static RETIRED: Counter = Counter::new("markov.batch.retired");

/// Evolves blocks of source distributions under one walk kernel.
///
/// Construction precomputes π and the inverse-degree table once; the
/// per-block methods take `&self` and check their two ping-pong
/// blocks and TVD row out of the calling thread's scratch pool, so
/// one `BatchEvolver` can be shared across the worker threads that
/// process different blocks without contending on the allocator.
///
/// # Example
///
/// ```
/// use socmix_markov::{BatchEvolver, Evolver};
/// let g = socmix_gen::fixtures::petersen();
/// let batch = BatchEvolver::new(&g);
/// let series = batch.tvd_series_block(&[0, 3, 7], 20, None);
/// let serial = Evolver::new(&g);
/// assert_eq!(series[1], serial.tvd_series(3, 20));
/// ```
pub struct BatchEvolver<'g> {
    graph: &'g Graph,
    kind: WalkKind,
    op: WalkOp<'g>,
    pi: Vec<f64>,
}

impl<'g> BatchEvolver<'g> {
    /// A batch evolver for the plain walk.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_kind(graph, WalkKind::Plain)
    }

    /// A batch evolver with an explicit kernel choice.
    pub fn with_kind(graph: &'g Graph, kind: WalkKind) -> Self {
        // Blocks are distributed across workers at the probe layer;
        // the within-block kernel stays serial (same policy as
        // `Evolver`) so the two parallelism axes do not oversubscribe.
        let op = WalkOp::with_pool(graph, Pool::serial());
        let pi = stationary_distribution(graph);
        BatchEvolver {
            graph,
            kind,
            op,
            pi,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The walk kernel in use.
    pub fn kind(&self) -> WalkKind {
        self.kind
    }

    /// The stationary distribution `π` (shared slice).
    pub fn stationary(&self) -> &[f64] {
        &self.pi
    }

    /// One blocked evolution step `X ← X·P` (or the lazy kernel) over
    /// the first `width` columns of the raw row-major blocks, writing
    /// into `next`.
    fn step_block(&self, cur: &[f64], next: &mut [f64], stride: usize, width: usize) {
        STEPS.incr();
        self.op.apply_multi_raw(cur, next, stride, width);
        if self.kind == WalkKind::Lazy {
            for i in 0..self.graph.num_nodes() {
                let base = i * stride;
                for c in 0..width {
                    next[base + c] = 0.5 * (next[base + c] + cur[base + c]);
                }
            }
        }
    }

    /// Per-column TVD to π over the first `width` columns, written
    /// into `out[0..width]`. Accumulation visits rows in ascending
    /// order — the same order as the serial [`total_variation`] — so
    /// each column's value is bit-for-bit the serial one.
    fn tvd_block(&self, xs: &[f64], stride: usize, width: usize, out: &mut [f64]) {
        out[..width].fill(0.0);
        for (i, &pi_i) in self.pi.iter().enumerate() {
            let base = i * stride;
            for c in 0..width {
                out[c] += (xs[base + c] - pi_i).abs();
            }
        }
        for v in &mut out[..width] {
            *v *= 0.5;
        }
    }

    /// TVD-to-π series for every source in the block, sharing one CSR
    /// traversal per step: `out[k][t-1] = ‖π − π⁽ˢᵏ⁾Pᵗ‖_tv`.
    ///
    /// With `retire_epsilon = Some(ε)`, a column whose TVD drops below
    /// ε is **retired**: its remaining entries are padded with the
    /// crossing value and it stops being evolved. First ε-crossings
    /// (and hence mixing times) are identical to the unretired run;
    /// later entries are upper bounds instead of exact values. With
    /// `None` the full series is exact (bit-for-bit serial-equal).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range node.
    pub fn tvd_series_block(
        &self,
        sources: &[NodeId],
        t_max: usize,
        retire_epsilon: Option<f64>,
    ) -> Vec<Vec<f64>> {
        let b = sources.len();
        assert!(b > 0, "tvd_series_block needs at least one source");
        self.with_blocks(sources, |mut cur, mut next, tvds| {
            let mut out: Vec<Vec<f64>> = (0..b).map(|_| Vec::with_capacity(t_max)).collect();
            // active[j] = original column index stored at packed column j
            let mut active: Vec<usize> = (0..b).collect();
            let mut width = b;
            for _ in 0..t_max {
                if width == 0 {
                    break;
                }
                self.step_block(cur, next, b, width);
                self.tvd_block(next, b, width, tvds);
                for j in 0..width {
                    out[active[j]].push(tvds[j]);
                }
                if let Some(eps) = retire_epsilon {
                    // Sweep the active prefix backwards so a column swapped
                    // in from the end (already examined this step) is never
                    // re-examined.
                    for j in (0..width).rev() {
                        if tvds[j] < eps {
                            let k = active[j];
                            // Pad the remainder with the crossing value:
                            // the retired column keeps its final TVD.
                            let d = *out[k].last().expect("just pushed");
                            out[k].resize(t_max, d);
                            swap_columns(next, b, j, width - 1);
                            active.swap(j, width - 1);
                            width -= 1;
                            RETIRED.incr();
                        }
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            out
        })
    }

    /// Per-source minimal `t ≤ t_max` with TVD < ε (`None` where the
    /// budget is exhausted first), evolving the whole block together
    /// and retiring sources as they cross — the batched counterpart of
    /// [`Evolver::time_to_epsilon`](crate::Evolver::time_to_epsilon).
    pub fn times_to_epsilon_block(
        &self,
        sources: &[NodeId],
        epsilon: f64,
        t_max: usize,
    ) -> Vec<Option<usize>> {
        let series = self.tvd_series_block(sources, t_max, Some(epsilon));
        series
            .iter()
            .map(|s| s.iter().position(|&d| d < epsilon).map(|i| i + 1))
            .collect()
    }

    /// TVD at a set of specific walk lengths (sorted ascending) for
    /// every source in the block — the batched counterpart of
    /// [`Evolver::tvd_at_lengths`](crate::Evolver::tvd_at_lengths).
    /// Returns one row per source; row `k` holds TVDs at each of
    /// `lengths`.
    pub fn tvd_at_lengths_block(&self, sources: &[NodeId], lengths: &[usize]) -> Vec<Vec<f64>> {
        debug_assert!(
            lengths.windows(2).all(|w| w[0] < w[1]),
            "lengths must be sorted"
        );
        let b = sources.len();
        assert!(b > 0, "tvd_at_lengths_block needs at least one source");
        self.with_blocks(sources, |mut cur, mut next, tvds| {
            let mut out: Vec<Vec<f64>> =
                (0..b).map(|_| Vec::with_capacity(lengths.len())).collect();
            let mut t = 0usize;
            for &target in lengths {
                while t < target {
                    self.step_block(cur, next, b, b);
                    std::mem::swap(&mut cur, &mut next);
                    t += 1;
                }
                self.tvd_block(cur, b, b, tvds);
                for (k, row) in out.iter_mut().enumerate() {
                    row.push(tvds[k]);
                }
            }
            out
        })
    }

    /// Runs `f` with the two zeroed `n × b` row-major ping-pong blocks
    /// and the `b`-entry TVD row of one block of `b = sources.len()`
    /// sources, all checked out of the calling thread's scratch pool
    /// (nested checkouts are distinct), with column `c` of the first
    /// block set to the point mass on `sources[c]`. Zero-filling keeps
    /// results independent of what the pool held before.
    fn with_blocks<R>(
        &self,
        sources: &[NodeId],
        f: impl for<'a> FnOnce(&'a mut [f64], &'a mut [f64], &mut [f64]) -> R,
    ) -> R {
        let n = self.graph.num_nodes();
        let b = sources.len();
        for &s in sources {
            assert!(
                (s as usize) < n,
                "source node {s} is out of range for a graph with {n} nodes"
            );
        }
        with_scratch(n * b, |cur| {
            with_scratch(n * b, |next| {
                with_scratch(b, |tvds| {
                    cur.fill(0.0);
                    next.fill(0.0);
                    for (c, &s) in sources.iter().enumerate() {
                        cur[s as usize * b + c] = 1.0;
                    }
                    f(cur, next, tvds)
                })
            })
        })
    }
}

/// Swaps columns `a` and `c` in every row of a row-major block with
/// `stride` entries per row (compacts a retired column out of the
/// active prefix).
fn swap_columns(block: &mut [f64], stride: usize, a: usize, c: usize) {
    if a != c {
        for row in block.chunks_exact_mut(stride) {
            row.swap(a, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evolver;
    use socmix_gen::fixtures;

    #[test]
    fn block_series_matches_serial_exactly() {
        let g = fixtures::petersen();
        let batch = BatchEvolver::new(&g);
        let serial = Evolver::new(&g);
        let sources: Vec<NodeId> = (0..10).collect();
        let block = batch.tvd_series_block(&sources, 40, None);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(block[k], serial.tvd_series(s, 40), "source {s}");
        }
    }

    #[test]
    fn lazy_block_matches_serial_exactly() {
        // bipartite fixture: the plain walk oscillates, the lazy one
        // converges — both must match the serial evolver per column.
        let g = fixtures::cycle(8);
        for kind in [WalkKind::Plain, WalkKind::Lazy] {
            let batch = BatchEvolver::with_kind(&g, kind);
            let serial = Evolver::with_kind(&g, kind);
            let sources: Vec<NodeId> = (0..8).collect();
            let block = batch.tvd_series_block(&sources, 60, None);
            for (k, &s) in sources.iter().enumerate() {
                assert_eq!(block[k], serial.tvd_series(s, 60), "{kind:?} source {s}");
            }
        }
    }

    #[test]
    fn retirement_pads_with_final_tvd() {
        let g = fixtures::petersen();
        let batch = BatchEvolver::new(&g);
        let eps = 0.05;
        let t_max = 50;
        let series = batch.tvd_series_block(&(0..10).collect::<Vec<_>>(), t_max, Some(eps));
        for row in &series {
            assert_eq!(row.len(), t_max, "padded to full length");
            let cross = row.iter().position(|&d| d < eps).expect("petersen mixes");
            // after the crossing, every entry equals the crossing value
            for &d in &row[cross..] {
                assert_eq!(d, row[cross]);
            }
        }
    }

    #[test]
    fn retirement_preserves_crossing_times() {
        let g = fixtures::lollipop(6, 4);
        let batch = BatchEvolver::new(&g);
        let serial = Evolver::new(&g);
        let eps = 0.01;
        let t_max = 2000;
        let sources: Vec<NodeId> = g.nodes().collect();
        let times = batch.times_to_epsilon_block(&sources, eps, t_max);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(
                times[k],
                serial.time_to_epsilon(s, eps, t_max),
                "source {s}"
            );
        }
    }

    #[test]
    fn retirement_with_unreachable_epsilon_keeps_exact_series() {
        // ε = 0 can never retire anything: series must stay exact.
        let g = fixtures::barbell(5, 2);
        let batch = BatchEvolver::new(&g);
        let serial = Evolver::new(&g);
        let block = batch.tvd_series_block(&[0, 7], 30, Some(0.0));
        assert_eq!(block[0], serial.tvd_series(0, 30));
        assert_eq!(block[1], serial.tvd_series(7, 30));
    }

    #[test]
    fn at_lengths_matches_serial() {
        let g = fixtures::petersen();
        let batch = BatchEvolver::new(&g);
        let serial = Evolver::new(&g);
        let lengths = [1usize, 5, 10, 40];
        let rows = batch.tvd_at_lengths_block(&[2, 7], &lengths);
        assert_eq!(rows[0], serial.tvd_at_lengths(2, &lengths));
        assert_eq!(rows[1], serial.tvd_at_lengths(7, &lengths));
    }

    #[test]
    fn single_source_block_degenerates_to_serial() {
        let g = fixtures::barbell(4, 1);
        let batch = BatchEvolver::new(&g);
        let serial = Evolver::new(&g);
        assert_eq!(
            batch.tvd_series_block(&[3], 25, None)[0],
            serial.tvd_series(3, 25)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_rejects_out_of_range_source() {
        let g = fixtures::petersen();
        BatchEvolver::new(&g).tvd_series_block(&[99], 5, None);
    }
}
