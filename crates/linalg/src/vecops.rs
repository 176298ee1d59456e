//! Dense vector kernels.
//!
//! Plain `f64` slices, no SIMD intrinsics — the hot loops here are
//! memory-bound gathers over the CSR arrays, and the compiler
//! autovectorizes the rest.

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
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
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

    #[test]
    fn norm_inf_and_sum() {
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(sum(&[1.0, 2.0, -0.5]), 2.5);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
