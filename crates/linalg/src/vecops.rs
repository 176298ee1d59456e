//! Dense vector kernels.
//!
//! Plain `f64` slices. The build targets baseline x86-64, so what the
//! compiler autovectorizes here is SSE2 code, two f64 lanes wide. The
//! one exception is [`block_sweep`], the Lanczos drivers' Gram–Schmidt
//! sweep and most of a solve: on a CPU that reports AVX at run time it
//! takes a 256-bit path written with intrinsics, which performs the
//! same operations in the same order as its portable twin, so both
//! give the same bits.

/// Dot product. Panics (debug) on length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product over eight independent accumulators, the f64
/// counterpart of [`dot32`]: Lanczos reorthogonalization runs one per
/// basis vector per step, and a single accumulator chains every
/// element through one FP add. The order of the sums is fixed by the
/// slice length alone.
#[inline]
pub(crate) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for (a, (x, y)) in acc.iter_mut().zip(xs.iter().zip(ys)) {
            *a += x * y;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    fold_lanes(&acc, tail)
}

/// [`dot_unrolled`]'s final reduction, a pairwise sum of the eight
/// lanes and then the tail; the block sweep's coefficients end in the
/// same one.
#[inline]
fn fold_lanes(acc: &[f64; 8], tail: f64) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Basis vectors per block of [`block_sweep`].
const BLOCK: usize = 8;

/// Eight vectors of one length, as [`block_pass`] reads them.
type Block<'a> = [&'a [f64]; BLOCK];

/// One block Gram–Schmidt sweep: subtracts from `w` its components
/// `(b·w) b` along the vectors of `basis`, eight at a time (classical
/// Gram–Schmidt within a block, modified across blocks).
///
/// A block's eight coefficients are all taken against the same `w`,
/// each in [`dot_unrolled`]'s order. Its update `w[i] += h_g·b_g[i]`
/// (with `h_g = −b_g·w`, ascending `g`, a multiply then an add) runs in
/// the same pass over `w` as the next block's coefficients, so `w` is
/// read and written once per eight basis vectors instead of three times
/// per vector. The last `k mod 8` vectors get [`dot_unrolled`] and
/// [`axpy`] one at a time. Nothing is allocated.
///
/// On x86-64 CPUs that report AVX at run time the passes run 256-bit
/// vector code; elsewhere [`block_sweep_portable`] runs them. Both do
/// the same operations in the same order, so `w` comes out bit for bit
/// the same on every host.
pub(crate) fn block_sweep(w: &mut [f64], basis: &[Vec<f64>]) {
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: `available()` just confirmed AVX at run time.
        unsafe { avx::block_sweep(w, basis) };
        return;
    }
    block_sweep_portable(w, basis);
}

/// [`block_sweep`] in plain Rust, for every CPU.
pub(crate) fn block_sweep_portable(w: &mut [f64], basis: &[Vec<f64>]) {
    sweep_blocks(w, basis, block_pass);
}

/// The block schedule of [`block_sweep`], over a `pass` that applies a
/// pending update to `w` and returns the next block's coefficients.
#[inline(always)]
fn sweep_blocks(
    w: &mut [f64],
    basis: &[Vec<f64>],
    mut pass: impl FnMut(&mut [f64], Option<(&Block, &[f64; BLOCK])>, Option<&Block>) -> [f64; BLOCK],
) {
    let n = w.len();
    let mut blocks = basis.chunks_exact(BLOCK);
    let mut pending: Option<(Block, [f64; BLOCK])> = None;
    for vs in blocks.by_ref() {
        let next: Block = std::array::from_fn(|g| {
            // the AVX passes read every vector within `w`'s bounds
            assert_eq!(vs[g].len(), n, "basis vector length");
            vs[g].as_slice()
        });
        let dots = pass(w, pending.as_ref().map(|(b, h)| (b, h)), Some(&next));
        pending = Some((next, dots.map(|d| -d)));
    }
    if let Some((b, h)) = &pending {
        pass(w, Some((b, h)), None);
    }
    for b in blocks.remainder() {
        axpy(-dot_unrolled(b, w), b, w);
    }
}

/// One pass over `w`: first `w[i] += h_g·b_g[i]` for the `update`
/// block (ascending `g`), then the `dots` block's coefficients against
/// the updated `w`, each in [`dot_unrolled`]'s lane order. Every
/// vector has `w.len()` entries.
fn block_pass(
    w: &mut [f64],
    update: Option<(&Block, &[f64; BLOCK])>,
    dots: Option<&Block>,
) -> [f64; BLOCK] {
    let m = w.len() - w.len() % 8;
    let mut acc = [[0.0f64; 8]; BLOCK];
    let mut x = [0.0f64; 8];
    for c in (0..m).step_by(8) {
        x.copy_from_slice(&w[c..c + 8]);
        if let Some((b, h)) = update {
            for (bg, hg) in b.iter().zip(h) {
                for (xl, bl) in x.iter_mut().zip(&bg[c..c + 8]) {
                    *xl += hg * bl;
                }
            }
            w[c..c + 8].copy_from_slice(&x);
        }
        if let Some(b) = dots {
            for (aj, bj) in acc.iter_mut().zip(b) {
                for ((al, bl), xl) in aj.iter_mut().zip(&bj[c..c + 8]).zip(&x) {
                    *al += bl * xl;
                }
            }
        }
    }
    let tail = pass_tail(w, m, update, dots);
    std::array::from_fn(|j| fold_lanes(&acc[j], tail[j]))
}

/// The scalar end of a pass, shared by both paths: elements `m..` of
/// `w` one at a time, returning each `dots` vector's sum over them.
#[inline(always)]
fn pass_tail(
    w: &mut [f64],
    m: usize,
    update: Option<(&Block, &[f64; BLOCK])>,
    dots: Option<&Block>,
) -> [f64; BLOCK] {
    let mut tail = [0.0f64; BLOCK];
    for i in m..w.len() {
        let mut xi = w[i];
        if let Some((b, h)) = update {
            for (bg, hg) in b.iter().zip(h) {
                xi += hg * bg[i];
            }
            w[i] = xi;
        }
        if let Some(b) = dots {
            for (tj, bj) in tail.iter_mut().zip(b) {
                *tj += bj[i] * xi;
            }
        }
    }
    tail
}

/// The 256-bit AVX passes of [`block_sweep`]. Compiled only on x86-64
/// and entered only after [`avx::available`] confirms the feature at
/// run time. Each pass does [`block_pass`]'s operations in its order:
/// lanes `0..4` of a chunk of eight in one register and `4..8` in
/// another, separate multiplies and adds (never a fused multiply-add),
/// then the same [`pass_tail`] and lane fold.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use super::{fold_lanes, pass_tail, sweep_blocks, Block, BLOCK};
    use std::arch::x86_64::*;

    /// Whether the AVX passes may run. `is_x86_feature_detected!`
    /// caches the CPUID probe, so this costs one load per sweep.
    #[inline]
    pub(crate) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// [`super::block_sweep`] on the AVX passes.
    ///
    /// # Safety
    /// The caller must guarantee that AVX is available (check
    /// [`available`] first).
    #[target_feature(enable = "avx")]
    // SAFETY: caller contract (see `# Safety` above) — AVX confirmed
    // via `available()`.
    pub(crate) unsafe fn block_sweep(w: &mut [f64], basis: &[Vec<f64>]) {
        // SAFETY: AVX is available by this function's contract, and
        // `sweep_blocks` asserts every vector's length is `w.len()`; a
        // pass never reads the block it is handed as a stand-in.
        sweep_blocks(w, basis, |w, update, dots| unsafe {
            match (update, dots) {
                (Some((b, h)), Some(d)) => pass::<true, true>(w, b, h, d),
                (Some((b, h)), None) => pass::<true, false>(w, b, h, b),
                (None, Some(d)) => pass::<false, true>(w, d, &[0.0; BLOCK], d),
                (None, None) => [0.0; BLOCK],
            }
        });
    }

    /// [`super::block_pass`] with the update applied if `UPDATE` and the
    /// coefficients taken if `DOTS`.
    ///
    /// # Safety
    /// AVX must be available, and every vector of `update` (if
    /// `UPDATE`) and of `dots` (if `DOTS`) must have `w.len()` entries.
    #[target_feature(enable = "avx")]
    // SAFETY: caller contract (see `# Safety` above) — AVX confirmed,
    // and every vector read is as long as `w`.
    unsafe fn pass<const UPDATE: bool, const DOTS: bool>(
        w: &mut [f64],
        update: &Block,
        h: &[f64; BLOCK],
        dots: &Block,
    ) -> [f64; BLOCK] {
        let n = w.len();
        let m = n - n % 8;
        let wp = w.as_mut_ptr();
        let mut hv = [_mm256_setzero_pd(); BLOCK];
        for (v, &hg) in hv.iter_mut().zip(h) {
            *v = _mm256_set1_pd(hg);
        }
        // acc[2j] holds dot_unrolled's lanes 0..4 of vector j, acc[2j+1]
        // lanes 4..8
        let mut acc = [_mm256_setzero_pd(); 2 * BLOCK];
        let mut c = 0;
        while c < m {
            // SAFETY: `c + 8 ≤ m ≤ n`, and `w` and every vector read
            // have `n` entries (caller contract), so each unaligned
            // four-lane load and store at `c` and `c + 4` is in bounds.
            unsafe {
                let mut x0 = _mm256_loadu_pd(wp.add(c));
                let mut x1 = _mm256_loadu_pd(wp.add(c + 4));
                if UPDATE {
                    for (b, &hg) in update.iter().zip(&hv) {
                        let p = b.as_ptr().add(c);
                        x0 = _mm256_add_pd(x0, _mm256_mul_pd(hg, _mm256_loadu_pd(p)));
                        x1 = _mm256_add_pd(x1, _mm256_mul_pd(hg, _mm256_loadu_pd(p.add(4))));
                    }
                    _mm256_storeu_pd(wp.add(c), x0);
                    _mm256_storeu_pd(wp.add(c + 4), x1);
                }
                if DOTS {
                    for (a, b) in acc.chunks_exact_mut(2).zip(dots) {
                        let p = b.as_ptr().add(c);
                        a[0] = _mm256_add_pd(a[0], _mm256_mul_pd(_mm256_loadu_pd(p), x0));
                        a[1] = _mm256_add_pd(a[1], _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), x1));
                    }
                }
            }
            c += 8;
        }
        let tail = pass_tail(w, m, UPDATE.then_some((update, h)), DOTS.then_some(dots));
        let mut out = [0.0f64; BLOCK];
        if DOTS {
            let mut lanes = [0.0f64; 8];
            for ((o, a), &t) in out.iter_mut().zip(acc.chunks_exact(2)).zip(&tail) {
                // SAFETY: `lanes` holds eight f64, room for the two
                // four-lane stores at offsets 0 and 4.
                unsafe {
                    _mm256_storeu_pd(lanes.as_mut_ptr(), a[0]);
                    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), a[1]);
                }
                *o = fold_lanes(&lanes, t);
            }
        }
        out
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm; returns the original norm.
/// A zero vector is left unchanged (returns 0).
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

/// Removes the component of `x` along the *unit* vector `u`:
/// `x -= (u·x) u`. Returns the removed coefficient.
pub fn project_out(x: &mut [f64], u: &[f64]) -> f64 {
    let c = dot(u, x);
    axpy(-c, u, x);
    c
}

/// Maximum absolute entry (∞-norm).
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

// --- f32 counterparts for the mixed-precision kernels ---
//
// Storage is f32 (halved traffic), but every reduction accumulates in
// f64: an f32-only sum over 10⁵ terms loses ~4 digits, which would eat
// the entire f32 path's tolerance budget before the operator even runs.

/// f32 dot product, accumulated in f64.
///
/// Eight independent accumulators: a single f64 accumulator chains
/// every element through one ~4-cycle FP add, which made this pass
/// cost more than the matvec it was checking. What the determinism
/// contracts need of a reduction is an order fixed by the slice length
/// alone, so that it is the same across pool widths, kernels and shard
/// counts; this one, [`dot`]'s left-to-right chain and
/// [`dot_unrolled`]'s eight lanes all meet that.
#[inline]
pub fn dot32(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for (a, (x, y)) in acc.iter_mut().zip(xs.iter().zip(ys)) {
            *a += f64::from(*x) * f64::from(*y);
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += f64::from(*x) * f64::from(*y);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Euclidean norm of an f32 vector (f64-accumulated).
#[inline]
pub fn norm2_32(a: &[f32]) -> f64 {
    dot32(a, a).sqrt()
}

/// `y += alpha * x` in f32.
#[inline]
pub fn axpy32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in f32.
#[inline]
pub fn scale32(x: &mut [f32], alpha: f32) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalizes an f32 vector (f64-accumulated norm); returns the
/// original norm. A zero vector is left unchanged (returns 0).
pub fn normalize32(x: &mut [f32]) -> f64 {
    let n = norm2_32(x);
    if n > 0.0 {
        scale32(x, (1.0 / n) as f32);
    }
    n
}

/// Residual norm `‖w − λ·v‖` over f32 slices, computed in f64 in one
/// fused read-only pass — the mixed power driver's convergence check,
/// which previously materialized the residual vector through a copy
/// and an axpy. Same eight-accumulator layout as [`dot32`].
#[inline]
pub fn resid_norm32(w: &[f32], v: &[f32], lambda: f64) -> f64 {
    debug_assert_eq!(w.len(), v.len());
    let mut acc = [0.0f64; 8];
    let mut cw = w.chunks_exact(8);
    let mut cv = v.chunks_exact(8);
    for (ws, vs) in cw.by_ref().zip(cv.by_ref()) {
        for (a, (x, y)) in acc.iter_mut().zip(ws.iter().zip(vs)) {
            let r = f64::from(*x) - lambda * f64::from(*y);
            *a += r * r;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in cw.remainder().iter().zip(cv.remainder()) {
        let r = f64::from(*x) - lambda * f64::from(*y);
        tail += r * r;
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail)
        .sqrt()
}

/// Removes the component of `x` along the *unit* f32 vector `u`
/// (coefficient computed in f64). Returns the removed coefficient.
pub fn project_out32(x: &mut [f32], u: &[f32]) -> f64 {
    let c = dot32(u, x);
    axpy32(-(c as f32), u, x);
    c
}

/// Sum of entries.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn project_out_orthogonalizes() {
        let u = {
            let mut u = vec![1.0, 1.0];
            normalize(&mut u);
            u
        };
        let mut x = vec![2.0, 0.0];
        project_out(&mut x, &u);
        assert!(dot(&x, &u).abs() < 1e-14);
    }

    #[test]
    fn f32_kernels_mirror_f64() {
        let a: Vec<f32> = vec![1.0, 2.0, 3.0];
        let b: Vec<f32> = vec![4.0, 5.0, 6.0];
        assert_eq!(dot32(&a, &b), 32.0);
        assert!((norm2_32(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = vec![1.0f32, 1.0];
        axpy32(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        let mut x = vec![3.0f32, 4.0];
        let n = normalize32(&mut x);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((norm2_32(&x) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32, 0.0];
        assert_eq!(normalize32(&mut z), 0.0);
    }

    #[test]
    fn dot32_accumulates_in_f64() {
        // 2^24 + 1 is not representable in f32; an f32 accumulator
        // would stall at 2^24 long before this sum finishes
        let ones = vec![1.0f32; (1 << 24) + 64];
        let sum = dot32(&ones, &ones);
        assert_eq!(sum, ones.len() as f64);
    }

    #[test]
    fn resid_norm32_matches_materialized_residual() {
        // 19 elements: exercises the unrolled body and the tail
        let w: Vec<f32> = (0..19).map(|i| ((i as f32) * 0.61).sin()).collect();
        let v: Vec<f32> = (0..19).map(|i| ((i as f32) * 0.37).cos()).collect();
        let lambda = 0.8125f64; // exact in f32
        let mut resid: Vec<f32> = w.clone();
        axpy32(-(lambda as f32), &v, &mut resid);
        let reference = norm2_32(&resid);
        let fused = resid_norm32(&w, &v, lambda);
        assert!((fused - reference).abs() < 1e-6, "{fused} vs {reference}");
        assert_eq!(resid_norm32(&[], &[], 1.0), 0.0);
    }

    #[test]
    fn project_out32_orthogonalizes() {
        let mut u = vec![1.0f32, 1.0];
        normalize32(&mut u);
        let mut x = vec![2.0f32, 0.0];
        project_out32(&mut x, &u);
        assert!(dot32(&x, &u).abs() < 1e-6);
    }

    /// Block Gram–Schmidt written out with the scalar kernels: a
    /// block's coefficients against one `w`, then its eight axpys in
    /// order (each element sees the same adds as in the fused pass).
    fn block_sweep_reference(w: &mut [f64], basis: &[Vec<f64>]) {
        let mut blocks = basis.chunks_exact(BLOCK);
        for block in blocks.by_ref() {
            let h: Vec<f64> = block.iter().map(|b| -dot_unrolled(b, w)).collect();
            for (b, hg) in block.iter().zip(h) {
                axpy(hg, b, w);
            }
        }
        for b in blocks.remainder() {
            axpy(-dot_unrolled(b, w), b, w);
        }
    }

    #[test]
    fn block_sweep_matches_its_scalar_definition_bit_for_bit() {
        let unit = |n: usize, seed: usize| -> Vec<f64> {
            let mut v: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.618 + seed as f64 * 1.37).sin())
                .collect();
            normalize(&mut v);
            v
        };
        for n in [1, 7, 8, 9, 33, 130] {
            for k in [0, 1, 7, 8, 9, 16, 17, 25] {
                let basis: Vec<Vec<f64>> = (1..=k).map(|s| unit(n, s)).collect();
                let w0 = unit(n, 0);
                let mut want = w0.clone();
                block_sweep_reference(&mut want, &basis);
                let mut got = w0.clone();
                block_sweep_portable(&mut got, &basis);
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n {n} k {k}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn norm_inf_and_sum() {
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(sum(&[1.0, 2.0, -0.5]), 2.5);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
