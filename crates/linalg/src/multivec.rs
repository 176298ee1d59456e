//! Blocked multi-vector storage and batched operator application.
//!
//! The sampling method evolves thousands of independent source
//! distributions through the same walk operator. Done one vector at a
//! time, every source re-streams the whole CSR edge array through
//! cache — a GEMV when the workload is a GEMM. A [`MultiVec`] packs
//! `B` distributions as a **row-major `n × B` block** so that one CSR
//! traversal serves all `B` columns: each gathered neighbor row is
//! `B` contiguous doubles, which the compiler auto-vectorizes.
//!
//! [`MultiLinearOp::apply_multi`] is the batched counterpart of
//! [`LinearOp::apply`]; per column it performs the same floating-point
//! operations in the same order as the serial kernel, so batched
//! results are bit-for-bit equal.

use crate::op::{LazyOp, LinearOp, SendMut, WalkOp};
use socmix_obs::Counter;

/// Batched walk-operator applications (one CSR traversal each).
static MULTI_MATVECS: Counter = Counter::new("linalg.matvec.multi");
/// Total active columns served by those traversals — compare against
/// `linalg.matvec` to see how much CSR re-streaming the blocking saved.
static MULTI_COLUMNS: Counter = Counter::new("linalg.matvec.multi_cols");

/// A row-major `n × width` block of `width` stacked column vectors.
///
/// `data[i * width + c]` is entry `i` of column `c`. Rows are
/// contiguous, which is the layout the batched CSR gather wants.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVec {
    data: Vec<f64>,
    n: usize,
    width: usize,
}

impl MultiVec {
    /// An all-zero block with `n` rows and `width` columns.
    pub fn zeros(n: usize, width: usize) -> Self {
        MultiVec {
            data: vec![0.0; n * width],
            n,
            width,
        }
    }

    /// Number of rows (the operator dimension).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of columns (the block width / stride).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i` as a slice of `width` column entries.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    /// Entry `(i, c)`.
    #[inline]
    pub fn get(&self, i: usize, c: usize) -> f64 {
        self.data[i * self.width + c]
    }

    /// Sets entry `(i, c)`.
    #[inline]
    pub fn set(&mut self, i: usize, c: usize, v: f64) {
        self.data[i * self.width + c] = v;
    }

    /// Copies column `c` out as an ordinary vector.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.width, "column {c} out of range");
        (0..self.n).map(|i| self.get(i, c)).collect()
    }

    /// Overwrites column `c` from a slice of length `n`.
    pub fn set_column(&mut self, c: usize, v: &[f64]) {
        assert!(c < self.width, "column {c} out of range");
        assert_eq!(v.len(), self.n);
        for (i, &x) in v.iter().enumerate() {
            self.set(i, c, x);
        }
    }

    /// Swaps columns `a` and `b` in every row (used to compact
    /// retired columns out of the active prefix).
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        assert!(a < self.width && b < self.width, "column out of range");
        if a == b {
            return;
        }
        for i in 0..self.n {
            self.data.swap(i * self.width + a, i * self.width + b);
        }
    }

    /// Sets every entry to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// The raw row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Operators that can apply themselves to a block of vectors in one
/// pass over their sparsity structure.
///
/// `width` restricts work to the first `width` columns of each row
/// (the *active prefix*) — callers that retire converged columns swap
/// them past the prefix and shrink `width` instead of reallocating.
///
/// # Exactness contract
///
/// For every active column `c`, `apply_multi` must produce exactly the
/// floating-point result of the serial [`LinearOp::apply`] on that
/// column: same operations, same order, no reassociation. The batch
/// engine's equivalence tests rely on it.
pub trait MultiLinearOp: LinearOp {
    /// Raw-slice core: computes `Y[:, 0..width] = Op · X[:, 0..width]`
    /// over row-major blocks with `stride` doubles per row. `xs` and
    /// `ys` must each hold at least `dim * stride` entries. This is
    /// the entry point for callers whose blocks live in arena scratch
    /// rather than an owned [`MultiVec`].
    fn apply_multi_raw(&self, xs: &[f64], ys: &mut [f64], stride: usize, width: usize);

    /// Computes `Y[:, 0..width] = Op · X[:, 0..width]` column-wise in
    /// one traversal.
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree with [`LinearOp::dim`] or their
    /// widths differ or are smaller than `width`.
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec, width: usize) {
        check_block_shapes(self.dim(), x.rows(), x.width(), y.rows(), y.width(), width);
        self.apply_multi_raw(x.as_slice(), y.as_mut_slice(), x.width(), width);
    }
}

fn check_block_shapes(
    dim: usize,
    x_rows: usize,
    x_width: usize,
    y_rows: usize,
    y_width: usize,
    width: usize,
) {
    assert_eq!(x_rows, dim, "input block row mismatch");
    assert_eq!(y_rows, dim, "output block row mismatch");
    assert_eq!(x_width, y_width, "block stride mismatch");
    assert!(width <= x_width, "active width exceeds block width");
}

impl MultiLinearOp for WalkOp<'_> {
    fn apply_multi_raw(&self, xs: &[f64], ys: &mut [f64], stride: usize, width: usize) {
        let n = self.dim();
        debug_assert!(xs.len() >= n * stride && ys.len() >= n * stride);
        debug_assert!(width <= stride);
        if width == 0 {
            return;
        }
        MULTI_MATVECS.incr();
        MULTI_COLUMNS.add(width as u64);
        let g = self.graph();
        let offsets = g.offsets();
        let targets = g.raw_targets();
        let inv_deg = self.inv_degrees();
        // Disjoint row ranges of y per chunk; same SendMut pattern as
        // the serial kernel.
        let yptr = SendMut(ys.as_mut_ptr());
        let ypref = &yptr;
        self.pool().for_each_chunk(n, move |range| {
            for j in range {
                // SAFETY: chunks own disjoint row ranges of y.
                let yr = unsafe { std::slice::from_raw_parts_mut(ypref.0.add(j * stride), width) };
                gather_row_multi(
                    &targets[offsets[j]..offsets[j + 1]],
                    inv_deg,
                    xs,
                    stride,
                    yr,
                );
            }
        });
    }
}

/// Batched gather of one output row: `y[c] = Σ_i x[i, c] · inv[i]`
/// over `nbrs` (the row's ascending adjacency) for every column
/// `c < y.len()`, where row `i` of the block starts at `xs[i * stride]`.
///
/// The columns go in blocks of 8, then 4, 2 and 1, and each block
/// accumulates in registers over the whole adjacency list before one
/// store. Per column the operation sequence is the serial kernel's
/// (`acc = 0`, then `acc += x·inv` per neighbour in ascending order, a
/// rounded multiply and then an add, never fused), so every column is
/// bit-for-bit equal to [`crate::LinearOp::apply`].
fn gather_row_multi(nbrs: &[u32], inv: &[f64], xs: &[f64], stride: usize, y: &mut [f64]) {
    let mut c = 0;
    while y.len() - c >= 8 {
        gather_cols::<8>(nbrs, inv, xs, stride, c, &mut y[c..c + 8]);
        c += 8;
    }
    if y.len() - c >= 4 {
        gather_cols::<4>(nbrs, inv, xs, stride, c, &mut y[c..c + 4]);
        c += 4;
    }
    if y.len() - c >= 2 {
        gather_cols::<2>(nbrs, inv, xs, stride, c, &mut y[c..c + 2]);
        c += 2;
    }
    if y.len() > c {
        gather_cols::<1>(nbrs, inv, xs, stride, c, &mut y[c..]);
    }
}

/// One `B`-column block of [`gather_row_multi`], starting at column
/// `col`.
#[inline(always)]
fn gather_cols<const B: usize>(
    nbrs: &[u32],
    inv: &[f64],
    xs: &[f64],
    stride: usize,
    col: usize,
    y: &mut [f64],
) {
    let mut acc = [0.0f64; B];
    for &i in nbrs {
        let i = i as usize;
        let d = inv[i];
        let xr = &xs[i * stride + col..i * stride + col + B];
        for (a, &x) in acc.iter_mut().zip(xr) {
            *a += x * d;
        }
    }
    y.copy_from_slice(&acc);
}

impl<Op: MultiLinearOp> MultiLinearOp for LazyOp<Op> {
    fn apply_multi_raw(&self, xs: &[f64], ys: &mut [f64], stride: usize, width: usize) {
        self.inner().apply_multi_raw(xs, ys, stride, width);
        for i in 0..self.dim() {
            let base = i * stride;
            for c in 0..width {
                ys[base + c] = 0.5 * (ys[base + c] + xs[base + c]);
            }
        }
    }
}

/// A borrowed row-major `n × width` block over caller-owned storage —
/// the [`MultiVec`] shape without the owned allocation, so batch
/// drivers can ping-pong blocks carved from arena scratch
/// ([`crate::workspace::with_arena`]) instead of round-tripping the
/// allocator per call.
#[derive(Debug)]
pub struct MultiVecMut<'a> {
    data: &'a mut [f64],
    n: usize,
    width: usize,
}

impl<'a> MultiVecMut<'a> {
    /// Wraps `data` as an `n × width` block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `n * width` long.
    pub fn new(data: &'a mut [f64], n: usize, width: usize) -> Self {
        assert_eq!(data.len(), n * width, "backing slice length mismatch");
        MultiVecMut { data, n, width }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of columns (the stride).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Entry `(i, c)`.
    #[inline]
    pub fn get(&self, i: usize, c: usize) -> f64 {
        self.data[i * self.width + c]
    }

    /// Sets entry `(i, c)`.
    #[inline]
    pub fn set(&mut self, i: usize, c: usize, v: f64) {
        self.data[i * self.width + c] = v;
    }

    /// Swaps columns `a` and `b` in every row.
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        assert!(a < self.width && b < self.width, "column out of range");
        if a == b {
            return;
        }
        for i in 0..self.n {
            self.data.swap(i * self.width + a, i * self.width + b);
        }
    }

    /// Sets every entry to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// The raw row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        self.data
    }

    /// The raw mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_graph::GraphBuilder;
    use socmix_par::Pool;

    fn diamond() -> socmix_graph::Graph {
        GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).build()
    }

    #[test]
    fn multivec_roundtrip() {
        let mut m = MultiVec::zeros(3, 2);
        m.set(0, 0, 1.0);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.column(1), vec![0.0, 0.0, 5.0]);
        assert_eq!(m.row(2), &[0.0, 5.0]);
        m.set_column(0, &[7.0, 8.0, 9.0]);
        assert_eq!(m.column(0), vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn swap_columns_swaps_every_row() {
        let mut m = MultiVec::zeros(4, 3);
        m.set_column(0, &[1.0, 2.0, 3.0, 4.0]);
        m.set_column(2, &[5.0, 6.0, 7.0, 8.0]);
        m.swap_columns(0, 2);
        assert_eq!(m.column(2), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.column(0), vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn batched_walk_matches_serial_bitwise() {
        let g = diamond();
        let op = WalkOp::with_pool(&g, Pool::serial());
        let n = g.num_nodes();
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * 7 + c * 3) % 5) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let mut x = MultiVec::zeros(n, 4);
        for (c, col) in cols.iter().enumerate() {
            x.set_column(c, col);
        }
        let mut y = MultiVec::zeros(n, 4);
        op.apply_multi(&x, &mut y, 4);
        for (c, col) in cols.iter().enumerate() {
            let serial = op.apply_vec(col);
            assert_eq!(y.column(c), serial, "column {c} must match bit-for-bit");
        }
    }

    #[test]
    fn batched_walk_parallel_pool_matches_serial() {
        let g = diamond();
        let op = WalkOp::with_pool(&g, Pool::with_threads(4));
        let n = g.num_nodes();
        let mut x = MultiVec::zeros(n, 3);
        for c in 0..3 {
            let col: Vec<f64> = (0..n).map(|i| (i + c + 1) as f64).collect();
            x.set_column(c, &col);
        }
        let mut y = MultiVec::zeros(n, 3);
        op.apply_multi(&x, &mut y, 3);
        let serial_op = WalkOp::with_pool(&g, Pool::serial());
        for c in 0..3 {
            assert_eq!(y.column(c), serial_op.apply_vec(&x.column(c)));
        }
    }

    #[test]
    fn multi_gather_width_sweep_matches_apply() {
        // Every column-block split of the register-accumulating gather
        // (8, 4, 2, 1 and their mixes), with an active width below the
        // stride, must reproduce the width-1 kernel bit for bit.
        use rand::SeedableRng;
        let g = socmix_gen::ba::barabasi_albert(600, 3, &mut rand::rngs::StdRng::seed_from_u64(17));
        let n = g.num_nodes();
        let serial = WalkOp::with_pool(&g, Pool::serial());
        for width in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            let stride = width + 2;
            let xs: Vec<f64> = (0..n * stride)
                .map(|k| ((k * 2_654_435_761) % 1999) as f64 / 997.0 - 1.0)
                .collect();
            let want: Vec<Vec<f64>> = (0..width)
                .map(|c| serial.apply_vec(&(0..n).map(|i| xs[i * stride + c]).collect::<Vec<_>>()))
                .collect();
            for threads in [1, 2] {
                let op = WalkOp::with_pool(&g, Pool::with_threads(threads));
                // NaN poison: the inactive columns must come back untouched.
                let mut ys = vec![f64::NAN; n * stride];
                op.apply_multi_raw(&xs, &mut ys, stride, width);
                for i in 0..n {
                    for (c, col) in want.iter().enumerate() {
                        assert_eq!(
                            ys[i * stride + c].to_bits(),
                            col[i].to_bits(),
                            "pool {threads}: width {width}, row {i}, column {c}"
                        );
                    }
                    assert!(
                        ys[i * stride + width..(i + 1) * stride]
                            .iter()
                            .all(|v| v.is_nan()),
                        "pool {threads}: width {width} wrote past its active columns in row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lazy_matches_serial_bitwise() {
        let g = diamond();
        let op = LazyOp::new(WalkOp::with_pool(&g, Pool::serial()));
        let n = g.num_nodes();
        let col: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut x = MultiVec::zeros(n, 2);
        x.set_column(0, &col);
        x.set_column(1, &col);
        let mut y = MultiVec::zeros(n, 2);
        op.apply_multi(&x, &mut y, 2);
        let serial = op.apply_vec(&col);
        assert_eq!(y.column(0), serial);
        assert_eq!(y.column(1), serial);
    }

    #[test]
    fn width_restricts_active_prefix() {
        let g = diamond();
        let op = WalkOp::with_pool(&g, Pool::serial());
        let n = g.num_nodes();
        let mut x = MultiVec::zeros(n, 3);
        x.set(0, 0, 1.0);
        x.set(0, 1, 1.0);
        x.set(0, 2, 1.0);
        let mut y = MultiVec::zeros(n, 3);
        // poison the inactive column; it must stay untouched
        y.set_column(2, &vec![9.0; n]);
        op.apply_multi(&x, &mut y, 2);
        assert_eq!(y.column(2), vec![9.0; n]);
        assert_eq!(y.column(0), op.apply_vec(&x.column(0)));
    }

    #[test]
    fn apply_multi_raw_matches_apply_multi() {
        let g = diamond();
        let n = g.num_nodes();
        let op = WalkOp::with_pool(&g, Pool::serial());
        let mut x = MultiVec::zeros(n, 2);
        for c in 0..2 {
            let col: Vec<f64> = (0..n).map(|i| (i + c) as f64).collect();
            x.set_column(c, &col);
        }
        let mut y = MultiVec::zeros(n, 2);
        op.apply_multi(&x, &mut y, 2);
        let mut raw = vec![0.0; n * 2];
        op.apply_multi_raw(x.as_slice(), &mut raw, 2, 2);
        assert_eq!(raw.as_slice(), y.as_slice());
    }

    #[test]
    fn multivec_mut_view_roundtrip() {
        let mut backing = vec![0.0; 4 * 2];
        let mut v = MultiVecMut::new(&mut backing, 4, 2);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.width(), 2);
        v.set(1, 0, 3.0);
        v.set(1, 1, 4.0);
        assert_eq!(v.get(1, 0), 3.0);
        v.swap_columns(0, 1);
        assert_eq!(v.get(1, 0), 4.0);
        assert_eq!(v.get(1, 1), 3.0);
        v.clear();
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "backing slice length mismatch")]
    fn multivec_mut_rejects_short_backing() {
        let mut backing = vec![0.0; 5];
        let _ = MultiVecMut::new(&mut backing, 4, 2);
    }

    #[test]
    fn zero_width_is_noop() {
        let g = diamond();
        let op = WalkOp::with_pool(&g, Pool::serial());
        let x = MultiVec::zeros(g.num_nodes(), 2);
        let mut y = MultiVec::zeros(g.num_nodes(), 2);
        op.apply_multi(&x, &mut y, 0);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
