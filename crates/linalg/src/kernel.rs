//! Matvec kernel selection and the cache-blocked CSR gather kernels.
//!
//! The CSR gather `y[j] = Σ_{i∼j} z[i]` is the hardware-bound inner
//! loop of every measurement in the workspace. This module provides
//! the alternatives behind the [`KernelConfig`] knob:
//!
//! - **Scalar** — the baseline loop in [`crate::op`], unchanged.
//! - **Blocked** — row-segmented, column-tiled `f64` gather: rows are
//!   processed in fixed segments with one cursor per row, and the
//!   sorted adjacency of each row is consumed in ascending column
//!   tiles, so the tile of `z` being gathered stays cache-resident
//!   while the CSR stream passes through once. Because adjacency
//!   lists are sorted (a `Graph` invariant) the per-row accumulation
//!   order is exactly the scalar order — results are **bit-for-bit**
//!   identical to the scalar kernel, so the determinism contract is
//!   preserved. Inner loops use unchecked indexing justified by the
//!   CSR invariants.
//! - **F32** — single-precision gather. The f64 contract forbids
//!   reassociation, which chains every add through one
//!   ~4-cycle-latency dependency; the f32 path trades
//!   bit-reproducibility against f64 for a tolerance contract (see
//!   [`crate::power::power_iteration_mixed`]) and may therefore break
//!   the chain. On x86-64 with AVX-512F the row sum runs as 16-lane
//!   hardware gathers (`vgatherdps`), which keeps ~16 cache misses in
//!   flight per row instead of the handful the scalar load loop
//!   manages — the gather into a vector scattered across L2 is
//!   latency-bound, so that memory-level parallelism (plus halved
//!   traffic) is where the speedup comes from. Elsewhere it falls
//!   back to four independent scalar accumulators per row.
//!
//! This is one of the workspace's designated knob modules: the
//! `SOCMIX_KERNEL` environment read lives here (and only here) so the
//! stray-env-read lint keeps every other crate honest.

use crate::workspace::with_arena;
use std::ops::Range;

/// Default column-tile width (entries of `z`) for the blocked kernels:
/// 128 Ki `f64` = 1 MiB, sized to keep a tile resident in a ~2 MiB L2
/// alongside the CSR stream and output rows.
pub const DEFAULT_COL_TILE: usize = 1 << 17;

/// Rows per blocked segment. Bounds the per-segment cursor and
/// accumulator state (2 KiB of cursors) so it lives in L1 across tile
/// passes.
const SEG_ROWS: usize = 256;

/// Which matvec kernel the operators run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The baseline scalar loop (bit-for-bit reference).
    #[default]
    Scalar,
    /// Cache-blocked f64 gather — bit-for-bit identical to `Scalar`.
    Blocked,
    /// Mixed precision: f32 iterations with f64 polish. f64 entry
    /// points behave as `Blocked` (still bit-for-bit); drivers that
    /// have a mixed path run it (tolerance contract: µ within 1e-6).
    F32,
}

/// Kernel selection plus blocking geometry, threaded through the
/// operators by value (it is `Copy`, like `Pool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Which kernel family to run.
    pub kind: KernelKind,
    /// Column-tile width for the blocked kernels, in entries of the
    /// gathered vector. Tests force tiny tiles to exercise the
    /// multi-tile path on small fixtures.
    pub col_tile: usize,
}

impl KernelConfig {
    /// The baseline scalar kernel.
    pub fn scalar() -> Self {
        Self::of(KernelKind::Scalar)
    }

    /// The cache-blocked f64 kernel.
    pub fn blocked() -> Self {
        Self::of(KernelKind::Blocked)
    }

    /// The mixed-precision f32 path.
    pub fn mixed_f32() -> Self {
        Self::of(KernelKind::F32)
    }

    /// A config of the given kind with the default tile width.
    pub fn of(kind: KernelKind) -> Self {
        KernelConfig {
            kind,
            col_tile: DEFAULT_COL_TILE,
        }
    }

    /// Overrides the column-tile width (clamped to at least 1).
    pub fn col_tile(mut self, tile: usize) -> Self {
        self.col_tile = tile.max(1);
        self
    }

    /// The kernel selected by the `SOCMIX_KERNEL` environment variable
    /// (`scalar`, `blocked`, or `f32`); scalar when unset. Invalid
    /// values warn once and fall back.
    pub fn from_env() -> Self {
        Self::of(kind_from_env(
            std::env::var("SOCMIX_KERNEL").ok().as_deref(),
        ))
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::scalar()
    }
}

fn kind_from_env(raw: Option<&str>) -> KernelKind {
    if let Some(v) = raw {
        match parse_kind(v) {
            Some(k) => return k,
            None => socmix_obs::warn_once!(
                "linalg.kernel",
                "ignoring invalid SOCMIX_KERNEL={v:?}: expected scalar, blocked, or f32, \
                 falling back to the scalar kernel"
            ),
        }
    }
    KernelKind::Scalar
}

fn parse_kind(v: &str) -> Option<KernelKind> {
    match v.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(KernelKind::Scalar),
        "blocked" => Some(KernelKind::Blocked),
        "f32" => Some(KernelKind::F32),
        _ => None,
    }
}

/// Blocked f64 gather over `rows`: for each row `j`,
/// `y[j - rows.start] = finish(j, Σ_k z[targets[k]])` with `k` ranging
/// over the row's CSR slice in storage (= ascending-column) order, so
/// the sum is bitwise the scalar kernel's.
///
/// `y` must have length `rows.len()`. When the whole vector fits one
/// tile the cursor machinery is skipped entirely.
pub(crate) fn gather_rows_f64(
    offsets: &[usize],
    targets: &[u32],
    z: &[f64],
    rows: Range<usize>,
    col_tile: usize,
    y: &mut [f64],
    finish: impl Fn(usize, f64) -> f64,
) {
    debug_assert_eq!(y.len(), rows.len());
    let n = z.len();
    if n <= col_tile {
        for (out, j) in y.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for k in offsets[j]..offsets[j + 1] {
                // SAFETY: CSR invariants — `offsets[j+1] ≤ targets.len()`
                // and every stored target id is `< n = z.len()`
                // (`GraphBuilder::build` guarantees both).
                unsafe {
                    acc += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                }
            }
            *out = finish(j, acc);
        }
        return;
    }
    let row0 = rows.start;
    let mut seg = rows.start;
    while seg < rows.end {
        let seg_end = (seg + SEG_ROWS).min(rows.end);
        let m = seg_end - seg;
        let mut acc = [0.0f64; SEG_ROWS];
        let mut cur = [0usize; SEG_ROWS];
        for (c, j) in cur.iter_mut().zip(seg..seg_end) {
            *c = offsets[j];
        }
        // ascending column tiles; each row's cursor advances through
        // its sorted adjacency exactly once across all tiles, so the
        // per-row accumulation order equals the scalar kernel's
        let mut t0 = 0usize;
        while t0 < n {
            let t1 = (t0 + col_tile).min(n);
            for r in 0..m {
                let end = offsets[seg + r + 1];
                let mut k = cur[r];
                let mut a = acc[r];
                if t1 == n {
                    while k < end {
                        // SAFETY: `k < offsets[j+1] ≤ targets.len()`,
                        // and target ids are `< n = z.len()` (CSR
                        // invariants from `GraphBuilder::build`).
                        unsafe {
                            a += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                        }
                        k += 1;
                    }
                } else {
                    while k < end {
                        // SAFETY: same CSR bounds argument as above.
                        let t = unsafe { *targets.get_unchecked(k) } as usize;
                        if t >= t1 {
                            break;
                        }
                        // SAFETY: `t < t1 ≤ n = z.len()`.
                        a += unsafe { *z.get_unchecked(t) };
                        k += 1;
                    }
                }
                acc[r] = a;
                cur[r] = k;
            }
            t0 = t1;
        }
        for r in 0..m {
            y[seg + r - row0] = finish(seg + r, acc[r]);
        }
        seg = seg_end;
    }
}

/// f32 gather over `rows`. Unlike the f64 kernels this one is free to
/// reassociate: on AVX-512 hardware each row sum runs as 16-lane
/// vector gathers (see [`avx512`]); elsewhere four independent
/// accumulators per row break the FP-add latency chain. Either way
/// the per-row instruction sequence depends only on the row, so
/// results are bitwise identical across pool widths on a given
/// machine.
pub(crate) fn gather_rows_f32(
    offsets: &[usize],
    targets: &[u32],
    z: &[f32],
    rows: Range<usize>,
    col_tile: usize,
    y: &mut [f32],
    finish: impl Fn(usize, f32) -> f32,
) {
    debug_assert_eq!(y.len(), rows.len());
    let n = z.len();
    if n <= col_tile.saturating_mul(2) {
        // an f32 tile holds twice the entries of an f64 tile per byte
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            for (out, j) in y.iter_mut().zip(rows.clone()) {
                // SAFETY: `available()` just confirmed AVX-512F at
                // runtime, and the CSR invariants from
                // `GraphBuilder::build` give `offsets[j+1] ≤
                // targets.len()` with every target id `< n = z.len()`.
                let sum = unsafe { avx512::row_sum(targets, offsets[j], offsets[j + 1], z) };
                *out = finish(j, sum);
            }
            return;
        }
        for (out, j) in y.iter_mut().zip(rows) {
            let end = offsets[j + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut k = offsets[j];
            while k + 4 <= end {
                // SAFETY: `k+3 < offsets[j+1] ≤ targets.len()` and
                // target ids are `< n = z.len()` (CSR invariants from
                // `GraphBuilder::build`).
                unsafe {
                    a0 += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                    a1 += *z.get_unchecked(*targets.get_unchecked(k + 1) as usize);
                    a2 += *z.get_unchecked(*targets.get_unchecked(k + 2) as usize);
                    a3 += *z.get_unchecked(*targets.get_unchecked(k + 3) as usize);
                }
                k += 4;
            }
            while k < end {
                // SAFETY: same CSR bounds argument as above.
                unsafe {
                    a0 += *z.get_unchecked(*targets.get_unchecked(k) as usize);
                }
                k += 1;
            }
            *out = finish(j, (a0 + a1) + (a2 + a3));
        }
        return;
    }
    // huge-n fallback: the same cursor/tile walk as the f64 kernel
    // (single accumulator; at these sizes the win is locality, and
    // the f32 contract does not require any particular order)
    let row0 = rows.start;
    let mut seg = rows.start;
    while seg < rows.end {
        let seg_end = (seg + SEG_ROWS).min(rows.end);
        let m = seg_end - seg;
        let mut acc = [0.0f32; SEG_ROWS];
        let mut cur = [0usize; SEG_ROWS];
        for (c, j) in cur.iter_mut().zip(seg..seg_end) {
            *c = offsets[j];
        }
        let tile = col_tile * 2;
        let mut t0 = 0usize;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            for r in 0..m {
                let end = offsets[seg + r + 1];
                let mut k = cur[r];
                let mut a = acc[r];
                while k < end {
                    // SAFETY: `k < offsets[j+1] ≤ targets.len()` (CSR
                    // invariants from `GraphBuilder::build`).
                    let t = unsafe { *targets.get_unchecked(k) } as usize;
                    if t >= t1 {
                        break;
                    }
                    // SAFETY: `t < t1 ≤ n = z.len()`.
                    a += unsafe { *z.get_unchecked(t) };
                    k += 1;
                }
                acc[r] = a;
                cur[r] = k;
            }
            t0 = t1;
        }
        for r in 0..m {
            y[seg + r - row0] = finish(seg + r, acc[r]);
        }
        seg = seg_end;
    }
}

/// Scalar batched gather of one output row: `y[c] = Σ_i x[i, c] · inv[i]`
/// over `nbrs` (the row's ascending adjacency) for every column
/// `c < y.len()`, where row `i` of the block starts at `xs[i * stride]`.
///
/// The columns go in blocks of 8, then 4, 2 and 1, and each block
/// accumulates in registers over the whole adjacency list before one
/// store. Per column the operation sequence is the serial kernel's
/// (`acc = 0`, then `acc += x·inv` per neighbour in ascending order, a
/// rounded multiply and then an add, never fused), so every column is
/// bit-for-bit equal to [`crate::LinearOp::apply`].
pub(crate) fn gather_row_multi(
    nbrs: &[u32],
    inv: &[f64],
    xs: &[f64],
    stride: usize,
    y: &mut [f64],
) {
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

/// Blocked batched gather for [`crate::multivec`]: per row `j` of
/// `rows`, accumulates `Σ_i x[i, c] · inv[i]` over the row's sorted
/// adjacency into `y[(j - rows.start) · stride + c]` for every active
/// column `c < width`.
///
/// The per-row, per-column operation sequence (`acc += x·inv`, columns
/// innermost, neighbors ascending) is exactly the scalar batched
/// kernel's, so results stay bit-for-bit identical — the tiling only
/// changes *when* each neighbor row is visited, never the order within
/// one output row.
//
// Nine arguments because this is a leaf kernel mirroring the CSR and
// batch layout verbatim; bundling them into a struct would only move
// the list one call up.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_rows_multi_f64(
    offsets: &[usize],
    targets: &[u32],
    inv: &[f64],
    xs: &[f64],
    stride: usize,
    width: usize,
    rows: Range<usize>,
    col_tile: usize,
    y: &mut [f64],
) {
    debug_assert_eq!(y.len(), rows.len() * stride);
    let n = inv.len();
    // callers pass the tile already scaled for the row footprint
    // (gathering `width` columns touches width·8 bytes per x-row)
    let tile = col_tile.max(1);
    with_arena(|arena| {
        let acc = arena.alloc_f64(SEG_ROWS * width);
        let row0 = rows.start;
        let mut seg = rows.start;
        while seg < rows.end {
            let seg_end = (seg + SEG_ROWS).min(rows.end);
            let m = seg_end - seg;
            acc[..m * width].fill(0.0);
            let mut cur = [0usize; SEG_ROWS];
            for (c, j) in cur.iter_mut().zip(seg..seg_end) {
                *c = offsets[j];
            }
            let mut t0 = 0usize;
            while t0 < n {
                let t1 = (t0 + tile).min(n);
                for r in 0..m {
                    let end = offsets[seg + r + 1];
                    let a = &mut acc[r * width..(r + 1) * width];
                    let mut k = cur[r];
                    while k < end {
                        let i = targets[k] as usize;
                        if i >= t1 {
                            break;
                        }
                        let d = inv[i];
                        let xr = &xs[i * stride..i * stride + width];
                        // per column the exact two-op sequence of the
                        // serial kernel: multiply, then accumulate
                        for (av, &xv) in a.iter_mut().zip(xr) {
                            *av += xv * d;
                        }
                        k += 1;
                    }
                    cur[r] = k;
                }
                t0 = t1;
            }
            for r in 0..m {
                y[(seg + r - row0) * stride..(seg + r - row0) * stride + width]
                    .copy_from_slice(&acc[r * width..r * width + width]);
            }
            seg = seg_end;
        }
    });
}

/// The AVX-512F row-sum kernel for [`gather_rows_f32`]. Compiled only
/// on x86-64 and entered only after [`avx512::available`] confirms the
/// feature at runtime; every other target takes the scalar
/// four-accumulator path.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Whether the AVX-512F gather may run. `is_x86_feature_detected!`
    /// caches the CPUID probe, so callers hoist this once per gather
    /// call, not per row.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Sums `z[targets[k] as usize]` for `k` in `s..e` using 16-lane
    /// hardware gathers with a masked tail, then one horizontal
    /// reduction. Reassociates freely — f32-contract only.
    ///
    /// # Safety
    /// The caller must guarantee that AVX-512F is available (check
    /// [`available`] first), that `s ≤ e ≤ targets.len()`, and that
    /// every `targets[s..e]` is `< z.len()`.
    #[target_feature(enable = "avx512f")]
    // SAFETY: caller contract (see `# Safety` above) — AVX-512F
    // confirmed via `available()`, `s ≤ e ≤ targets.len()`, and every
    // `targets[s..e]` indexes below `z.len()`.
    pub(super) unsafe fn row_sum(targets: &[u32], s: usize, e: usize, z: &[f32]) -> f32 {
        // SAFETY: the loads at `targets.as_ptr().add(k)` stay in
        // bounds because `k + 16 ≤ e ≤ targets.len()` (masked tail:
        // `k + popcount(m) = e`), and every gathered lane indexes
        // `z` below `z.len()` by the caller's contract.
        unsafe {
            let mut acc = _mm512_setzero_ps();
            let mut k = s;
            while k + 16 <= e {
                let idx = _mm512_loadu_si512(targets.as_ptr().add(k) as *const _);
                acc = _mm512_add_ps(acc, _mm512_i32gather_ps::<4>(idx, z.as_ptr()));
                k += 16;
            }
            if k < e {
                let m: __mmask16 = (1u16 << (e - k)) - 1;
                let idx = _mm512_maskz_loadu_epi32(m, targets.as_ptr().add(k) as *const _);
                let got = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), m, idx, z.as_ptr());
                acc = _mm512_add_ps(acc, got);
            }
            _mm512_reduce_add_ps(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_kernels() {
        assert_eq!(parse_kind("scalar"), Some(KernelKind::Scalar));
        assert_eq!(parse_kind("blocked"), Some(KernelKind::Blocked));
        assert_eq!(parse_kind("f32"), Some(KernelKind::F32));
        assert_eq!(parse_kind("  Blocked \n"), Some(KernelKind::Blocked));
        assert_eq!(parse_kind("F32"), Some(KernelKind::F32));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "fast", "f64", "blocked,scalar", "0"] {
            assert_eq!(parse_kind(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn env_fallback_is_scalar() {
        assert_eq!(kind_from_env(None), KernelKind::Scalar);
        assert_eq!(kind_from_env(Some("blocked")), KernelKind::Blocked);
    }

    #[test]
    fn invalid_kernel_override_warns_and_falls_back() {
        // the warning must be visible even if the ambient SOCMIX_LOG
        // suppressed it
        socmix_obs::set_log_level(socmix_obs::Level::Warn);
        let _ = socmix_obs::take_recent_events();
        assert_eq!(kind_from_env(Some("quantum")), KernelKind::Scalar);
        assert_eq!(kind_from_env(Some("fast")), KernelKind::Scalar);
        let warnings: Vec<String> = socmix_obs::take_recent_events()
            .into_iter()
            .filter(|e| e.contains("invalid SOCMIX_KERNEL"))
            .collect();
        // warn_once: the first invalid value warns, later ones are
        // latched silent
        assert_eq!(warnings.len(), 1, "got {warnings:?}");
    }

    #[test]
    fn config_builders() {
        assert_eq!(KernelConfig::default().kind, KernelKind::Scalar);
        assert_eq!(KernelConfig::blocked().kind, KernelKind::Blocked);
        assert_eq!(KernelConfig::mixed_f32().kind, KernelKind::F32);
        assert_eq!(KernelConfig::scalar().col_tile, DEFAULT_COL_TILE);
        assert_eq!(KernelConfig::blocked().col_tile(7).col_tile, 7);
        assert_eq!(KernelConfig::blocked().col_tile(0).col_tile, 1);
    }

    /// A tiny CSR fixture: 5 rows with varying degrees, sorted targets.
    fn csr() -> (Vec<usize>, Vec<u32>) {
        let adj: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 4],
            vec![0, 2],
            vec![0, 1, 3],
            vec![0, 2],
            vec![0],
        ];
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for row in &adj {
            targets.extend_from_slice(row);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    #[test]
    fn tiled_f64_gather_is_bitwise_scalar() {
        let (offsets, targets) = csr();
        let z: Vec<f64> = (0..5).map(|i| 1.0 / (i as f64 + 3.7)).collect();
        let scalar: Vec<f64> = (0..5)
            .map(|j| {
                targets[offsets[j]..offsets[j + 1]]
                    .iter()
                    .fold(0.0, |a, &t| a + z[t as usize])
            })
            .collect();
        for tile in [1, 2, 3, 64] {
            let mut y = vec![0.0; 5];
            gather_rows_f64(&offsets, &targets, &z, 0..5, tile, &mut y, |_, a| a);
            for (a, b) in y.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), b.to_bits(), "tile {tile}");
            }
        }
    }

    #[test]
    fn tiled_gather_respects_row_subrange() {
        let (offsets, targets) = csr();
        let z = vec![1.0f64; 5];
        let mut y = vec![0.0; 2];
        gather_rows_f64(&offsets, &targets, &z, 1..3, 2, &mut y, |_, a| a);
        assert_eq!(y, vec![2.0, 3.0]); // degrees of rows 1 and 2
    }

    #[test]
    fn finish_sees_absolute_row_index() {
        let (offsets, targets) = csr();
        let z = vec![1.0f64; 5];
        let mut y = vec![0.0; 5];
        gather_rows_f64(&offsets, &targets, &z, 0..5, 2, &mut y, |j, a| {
            a * (j + 1) as f64
        });
        assert_eq!(y, vec![4.0, 4.0, 9.0, 8.0, 5.0]);
    }

    #[test]
    fn f32_gather_matches_exact_sum_on_small_rows() {
        let (offsets, targets) = csr();
        let z: Vec<f32> = (0..5).map(|i| (i as f32 + 1.0) / 8.0).collect();
        for tile in [1, 64] {
            let mut y = vec![0.0f32; 5];
            gather_rows_f32(&offsets, &targets, &z, 0..5, tile, &mut y, |_, a| a);
            for (j, &v) in y.iter().enumerate() {
                let exact: f32 = targets[offsets[j]..offsets[j + 1]]
                    .iter()
                    .map(|&t| z[t as usize])
                    .sum();
                // tiny rows: every accumulation order is exact here
                assert!((v - exact).abs() < 1e-6, "row {j}: {v} vs {exact}");
            }
        }
    }

    /// Exercises every tail length of the AVX-512 row sum (full
    /// 16-lane chunks, masked tails of 1..=15, and rows shorter than
    /// one chunk) against a scalar reference.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_row_sum_matches_scalar_for_all_tail_lengths() {
        if !avx512::available() {
            return; // nothing to exercise on this machine
        }
        let z: Vec<f32> = (0..97)
            .map(|i| ((i * 37 + 11) % 97) as f32 / 97.0)
            .collect();
        let targets: Vec<u32> = (0..200).map(|k| ((k * 61 + 13) % 97) as u32).collect();
        for s in [0usize, 3] {
            for len in 0..=48 {
                let e = s + len;
                let exact: f64 = targets[s..e].iter().map(|&t| z[t as usize] as f64).sum();
                // SAFETY: `available()` returned true, `e ≤
                // targets.len()`, and every target id is `< 97 =
                // z.len()` by construction.
                let got = unsafe { avx512::row_sum(&targets, s, e, &z) };
                assert!(
                    (got as f64 - exact).abs() < 1e-5,
                    "s={s} len={len}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn multi_gather_matches_scalar_per_column_bitwise() {
        let (offsets, targets) = csr();
        let inv: Vec<f64> = (0..5).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let width = 3;
        let stride = 4;
        let xs: Vec<f64> = (0..5 * stride).map(|k| (k as f64).sin()).collect();
        for tile in [1, 2, 128] {
            let mut y = vec![0.0; 5 * stride];
            gather_rows_multi_f64(
                &offsets,
                &targets,
                &inv,
                &xs,
                stride,
                width,
                0..5,
                tile,
                &mut y,
            );
            for j in 0..5 {
                for c in 0..width {
                    let mut acc = 0.0;
                    for &i in &targets[offsets[j]..offsets[j + 1]] {
                        acc += xs[i as usize * stride + c] * inv[i as usize];
                    }
                    assert_eq!(
                        y[j * stride + c].to_bits(),
                        acc.to_bits(),
                        "tile {tile} row {j} col {c}"
                    );
                }
            }
        }
    }
}
