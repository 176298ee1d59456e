//! The sampling half of the paper's methodology.
//!
//! "We follow the definition: starting from an initial distribution
//! concentrated on a node v_i, compute the distribution after the
//! random walk of length t … We repeat this many times (i.e., 1000)
//! by picking an initial node randomly" (paper §3.3). For the small
//! physics graphs the paper goes further and probes **every** node
//! brute-force (Figures 3–5); [`MixingProbe::all_sources`] is that
//! mode.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socmix_graph::{sample, Graph, NodeId};
use socmix_markov::ergodic::WalkKind;
use socmix_markov::{ergodicity, BatchEvolver, Evolver};
use socmix_obs::{obs_debug, Counter, Histogram, Span};
use socmix_par::Pool;

/// Source blocks handed to the pool by probe runs.
static BLOCKS: Counter = Counter::new("core.probe.blocks");
/// Sources probed across all probe runs.
static SOURCES: Counter = Counter::new("core.probe.sources");
/// Wall time per evolved source block. On a trace timeline each block
/// is one span on the pool worker that ran it, nested under the
/// dispatching `pool.map_ns` span.
static BLOCK_NS: Histogram = Histogram::new("core.probe.block_ns");

/// Default number of sources evolved together per block.
///
/// 16 columns = 128 bytes per gathered row — two cache lines, small
/// enough that a block of walk frontiers stays cache-resident on the
/// catalog graphs, large enough to amortize the CSR stream ~16×.
/// Override per probe with [`MixingProbe::block_size`].
pub const DEFAULT_BLOCK: usize = 16;

/// Per-source TVD series produced by a probe run.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The probed sources, in the order of `series`.
    pub sources: Vec<NodeId>,
    /// `series[k][t-1]` = total variation distance to π after `t`
    /// steps from `sources[k]`.
    pub series: Vec<Vec<f64>>,
}

impl ProbeResult {
    /// Number of sources probed.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Maximum walk length recorded.
    pub fn t_max(&self) -> usize {
        self.series.first().map(|s| s.len()).unwrap_or(0)
    }

    /// TVD values across sources at a fixed walk length `t` (1-based),
    /// unsorted.
    pub fn tvds_at(&self, t: usize) -> Vec<f64> {
        assert!(t >= 1 && t <= self.t_max(), "t out of range");
        self.series.iter().map(|s| s[t - 1]).collect()
    }

    /// The *empirical mixing time* at `ε`: the maximum over probed
    /// sources of the minimal `t` with TVD < ε (Definition 1
    /// restricted to the sample). `None` if any source fails to get
    /// within ε by `t_max` — the honest answer when the budget is too
    /// small.
    pub fn mixing_time(&self, epsilon: f64) -> Option<usize> {
        let mut worst = 0usize;
        for s in &self.series {
            let t = s.iter().position(|&d| d < epsilon)? + 1;
            worst = worst.max(t);
        }
        Some(worst)
    }

    /// Per-source times-to-ε (None where not reached) — the
    /// distribution behind the paper's "different nodes approach the
    /// stationary distribution at different rates" observation.
    pub fn times_to_epsilon(&self, epsilon: f64) -> Vec<Option<usize>> {
        self.series
            .iter()
            .map(|s| s.iter().position(|&d| d < epsilon).map(|i| i + 1))
            .collect()
    }
}

/// Exact-distribution mixing probe over one graph.
///
/// # Example
///
/// ```
/// use socmix_core::MixingProbe;
/// let g = socmix_gen::fixtures::petersen();
/// let probe = MixingProbe::new(&g).auto_kernel();
/// let result = probe.all_sources(50);
/// // the Petersen graph is an excellent expander
/// assert!(result.mixing_time(0.01).unwrap() < 20);
/// ```
pub struct MixingProbe<'g> {
    graph: &'g Graph,
    kind: WalkKind,
    pool: Pool,
    block: usize,
    retire_epsilon: Option<f64>,
}

impl<'g> MixingProbe<'g> {
    /// Probe with the plain walk kernel.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn new(graph: &'g Graph) -> Self {
        assert!(graph.num_edges() > 0, "probe needs a graph with edges");
        MixingProbe {
            graph,
            kind: WalkKind::Plain,
            pool: Pool::new(),
            block: DEFAULT_BLOCK,
            retire_epsilon: None,
        }
    }

    /// Selects the lazy kernel when the graph is bipartite (otherwise
    /// keeps the plain walk) — the safe default for generated graphs.
    pub fn auto_kernel(mut self) -> Self {
        if let Some(kind) = ergodicity(self.graph).required_walk() {
            self.kind = kind;
        }
        self
    }

    /// Forces a walk kernel.
    pub fn kernel(mut self, kind: WalkKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the worker pool that the source blocks are scheduled over.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the number of sources evolved together per block (default
    /// [`DEFAULT_BLOCK`]).
    /// `1` degenerates to the serial per-source path.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn block_size(mut self, block: usize) -> Self {
        assert!(block >= 1, "block size must be at least 1");
        self.block = block;
        self
    }

    /// Retires a source's column as soon as its TVD drops below `ε`,
    /// skipping the remaining steps for that column. First ε-crossings
    /// — and therefore [`ProbeResult::mixing_time`] and
    /// [`ProbeResult::times_to_epsilon`] at any threshold ≥ ε — are
    /// identical to the exact run; series entries *after* the crossing
    /// are padded with the crossing value instead of evolved further.
    /// Off by default (series are exact).
    pub fn retire_at(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "retirement threshold must be positive");
        self.retire_epsilon = Some(epsilon);
        self
    }

    /// The kernel in use.
    pub fn walk_kind(&self) -> WalkKind {
        self.kind
    }

    /// The block size in use.
    pub fn current_block_size(&self) -> usize {
        self.block
    }

    /// TVD series from each of the given sources. Sources are
    /// partitioned into blocks of [`Self::block_size`]; each block is
    /// evolved through one shared CSR traversal per step by a
    /// [`BatchEvolver`], and the blocks are scheduled over the pool.
    pub fn probe_sources(&self, sources: &[NodeId], t_max: usize) -> ProbeResult {
        let be = BatchEvolver::with_kind(self.graph, self.kind);
        let blocks: Vec<&[NodeId]> = sources.chunks(self.block).collect();
        let retire = self.retire_epsilon;
        BLOCKS.add(blocks.len() as u64);
        SOURCES.add(sources.len() as u64);
        obs_debug!(
            "core.probe",
            "probing {} sources in {} blocks of ≤{} for {t_max} steps ({:?} kernel)",
            sources.len(),
            blocks.len(),
            self.block,
            self.kind
        );
        let per_block = self.pool.map_indexed(blocks.len(), |bi| {
            let _span = Span::start(&BLOCK_NS);
            be.tvd_series_block(blocks[bi], t_max, retire)
        });
        ProbeResult {
            sources: sources.to_vec(),
            series: per_block.into_iter().flatten().collect(),
        }
    }

    /// Probes `count` distinct uniformly random sources (the paper's
    /// 1000-sample mode). Deterministic in `seed`.
    pub fn probe_random_sources(&self, count: usize, t_max: usize, seed: u64) -> ProbeResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = count.min(self.graph.num_nodes());
        let sources = sample::random_nodes(self.graph, k, &mut rng);
        self.probe_sources(&sources, t_max)
    }

    /// Probes **every** node — the brute-force mode the paper uses on
    /// the physics co-authorship graphs.
    pub fn all_sources(&self, t_max: usize) -> ProbeResult {
        let sources: Vec<NodeId> = self.graph.nodes().collect();
        self.probe_sources(&sources, t_max)
    }

    /// Single-source convenience: minimal `t ≤ t_max` with TVD < ε.
    pub fn time_to_epsilon(&self, source: NodeId, epsilon: f64, t_max: usize) -> Option<usize> {
        Evolver::with_kind(self.graph, self.kind).time_to_epsilon(source, epsilon, t_max)
    }

    /// TVD at fixed walk lengths for every node — the raw data of the
    /// paper's CDF figures (3 and 4). Returns one row per source in
    /// node order; row `k` holds TVDs at each of `lengths`. Sources
    /// are evolved in blocks like [`Self::probe_sources`].
    pub fn all_sources_at_lengths(&self, lengths: &[usize]) -> Vec<Vec<f64>> {
        let sources: Vec<NodeId> = self.graph.nodes().collect();
        let be = BatchEvolver::with_kind(self.graph, self.kind);
        let blocks: Vec<&[NodeId]> = sources.chunks(self.block).collect();
        BLOCKS.add(blocks.len() as u64);
        SOURCES.add(sources.len() as u64);
        let per_block = self.pool.map_indexed(blocks.len(), |bi| {
            let _span = Span::start(&BLOCK_NS);
            be.tvd_at_lengths_block(blocks[bi], lengths)
        });
        per_block.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_gen::fixtures;

    #[test]
    fn probe_shapes() {
        let g = fixtures::petersen();
        let p = MixingProbe::new(&g);
        let r = p.probe_sources(&[0, 3, 7], 20);
        assert_eq!(r.num_sources(), 3);
        assert_eq!(r.t_max(), 20);
        assert_eq!(r.tvds_at(1).len(), 3);
    }

    #[test]
    fn probe_matches_serial_evolver() {
        let g = fixtures::barbell(4, 1);
        let p = MixingProbe::new(&g);
        let r = p.probe_sources(&[0, 5], 30);
        let e = Evolver::new(&g);
        for (k, &src) in r.sources.iter().enumerate() {
            let expect = e.tvd_series(src, 30);
            for (a, b) in r.series[k].iter().zip(&expect) {
                assert!((a - b).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn mixing_time_is_worst_source() {
        let g = fixtures::lollipop(6, 4);
        let p = MixingProbe::new(&g);
        let r = p.all_sources(2000);
        let eps = 0.01;
        let t = r.mixing_time(eps).unwrap();
        let per_source = r.times_to_epsilon(eps);
        let worst = per_source.iter().map(|o| o.unwrap()).max().unwrap();
        assert_eq!(t, worst);
        // the tail node of the lollipop should be among the slowest
        let tail_t = per_source.last().unwrap().unwrap();
        let clique_t = per_source[0].unwrap();
        assert!(tail_t >= clique_t);
    }

    #[test]
    fn mixing_time_none_when_unreached() {
        let g = fixtures::barbell(8, 2);
        let p = MixingProbe::new(&g);
        let r = p.probe_sources(&[0], 3);
        assert_eq!(r.mixing_time(1e-6), None);
    }

    #[test]
    fn random_sources_deterministic() {
        let g = fixtures::grid(8, 8);
        let p = MixingProbe::new(&g).auto_kernel();
        let a = p.probe_random_sources(5, 10, 42);
        let b = p.probe_random_sources(5, 10, 42);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.series, b.series);
    }

    #[test]
    fn auto_kernel_detects_bipartite() {
        let g = fixtures::grid(4, 4); // grids are bipartite
        let p = MixingProbe::new(&g).auto_kernel();
        assert_eq!(p.walk_kind(), WalkKind::Lazy);
        let g2 = fixtures::petersen();
        let p2 = MixingProbe::new(&g2).auto_kernel();
        assert_eq!(p2.walk_kind(), WalkKind::Plain);
    }

    #[test]
    fn all_sources_at_lengths_shape() {
        let g = fixtures::petersen();
        let p = MixingProbe::new(&g);
        let rows = p.all_sources_at_lengths(&[1, 5, 10]);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.len() == 3));
        // TVD decreases with walk length on this non-bipartite graph
        for r in rows {
            assert!(r[0] >= r[2] - 1e-12);
        }
    }

    #[test]
    fn count_larger_than_n_probes_all() {
        let g = fixtures::cycle(7);
        let p = MixingProbe::new(&g);
        let r = p.probe_random_sources(100, 5, 0);
        assert_eq!(r.num_sources(), 7);
    }

    #[test]
    fn series_invariant_under_block_size() {
        let g = fixtures::lollipop(5, 3);
        let sources: Vec<_> = g.nodes().collect();
        let reference = MixingProbe::new(&g)
            .block_size(1)
            .probe_sources(&sources, 40);
        for b in [2, 3, 8, 64] {
            let r = MixingProbe::new(&g)
                .block_size(b)
                .probe_sources(&sources, 40);
            // bit-for-bit: the batched kernel performs the same
            // floating-point operations in the same order per column
            assert_eq!(r.series, reference.series, "block size {b}");
        }
    }

    #[test]
    fn probe_empty_sources() {
        let g = fixtures::petersen();
        let p = MixingProbe::new(&g);
        let r = p.probe_sources(&[], 10);
        assert_eq!(r.num_sources(), 0);
        assert_eq!(r.t_max(), 0);
    }

    #[test]
    fn retire_at_preserves_mixing_times() {
        let g = fixtures::lollipop(6, 4);
        let eps = 0.01;
        let exact = MixingProbe::new(&g).block_size(4).all_sources(2000);
        let retired = MixingProbe::new(&g)
            .block_size(4)
            .retire_at(eps)
            .all_sources(2000);
        assert_eq!(
            exact.mixing_time(eps).unwrap(),
            retired.mixing_time(eps).unwrap()
        );
        assert_eq!(exact.times_to_epsilon(eps), retired.times_to_epsilon(eps));
        // and at a looser threshold, which retired series still answer
        assert_eq!(exact.times_to_epsilon(0.1), retired.times_to_epsilon(0.1));
    }

    #[test]
    fn at_lengths_invariant_under_block_size() {
        let g = fixtures::grid(5, 5);
        let p1 = MixingProbe::new(&g).auto_kernel().block_size(1);
        let p7 = MixingProbe::new(&g).auto_kernel().block_size(7);
        assert_eq!(
            p1.all_sources_at_lengths(&[1, 4, 9]),
            p7.all_sources_at_lengths(&[1, 4, 9])
        );
    }

    #[test]
    #[should_panic(expected = "block size must be at least 1")]
    fn zero_block_size_rejected() {
        let g = fixtures::petersen();
        let _ = MixingProbe::new(&g).block_size(0);
    }
}
