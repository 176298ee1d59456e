//! Host-speed calibration.
//!
//! The benchmark runs on a guest of a shared machine whose speed
//! moves, for minutes at a time, by more than the bounds it gates: the
//! same `spectral` solve took 337 ms in one stretch and 550 ms in
//! another, with every run correct. A median over one run cannot take
//! that out, because the run sits inside one stretch. So each gated
//! timing is also measured against a fixed kernel timed next to it,
//! and reported in kernel units: `raw × REF_MS / kernel`, the time the
//! operation takes on a host where the kernel takes `REF_MS`.
//!
//! The kernel is the benchmark's own code and never calls the
//! library, so a change to the library moves the normalised timing as
//! it would move the raw one at a fixed host speed. It is the loop that
//! dominates a Lanczos solve (about 90% of `spectral`): projecting one
//! vector out of a basis, a sequential `f64` dot product and an axpy per
//! basis vector, over vectors as long as Physics 2 has nodes.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::ms;

/// The kernel's time, in ms, on the host normalised timings refer to.
pub const REF_MS: f64 = 20.0;
/// Vector length: Physics 2's node count at paper scale.
const N: usize = 11_204;
/// Basis vectors (about 0.7 MB, so the kernel stays in a core's L2).
const K: usize = 8;
/// Sweeps over the basis per timing: about 20 ms on the reference host.
const SWEEPS: usize = 160;

/// A fixed basis and the vector projected against it.
pub struct Calibration {
    basis: Vec<Vec<f64>>,
    w: Vec<f64>,
}

/// Sequential dot product, the same reduction order as the library's.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn unit(salt: u64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..N as u64)
        .map(|i| (crate::mix_seed(i, salt) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    let norm = dot(&v, &v).sqrt();
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

impl Calibration {
    /// Builds the basis (the same on every run) and runs the kernel
    /// once untimed.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            basis: (0..K as u64).map(unit).collect(),
            w: unit(K as u64),
        };
        c.time_ms();
        c
    }

    /// One timing of the kernel, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..SWEEPS {
            for q in &self.basis {
                let c = dot(q, &self.w);
                for (wi, qi) in self.w.iter_mut().zip(q) {
                    *wi -= c * qi;
                }
            }
            // Keeps `w` at unit length, far from subnormal values.
            let norm = dot(&self.w, &self.w).sqrt();
            self.w.iter_mut().for_each(|x| *x /= norm);
        }
        black_box(&self.w);
        ms(t.elapsed())
    }
}

/// `raw` (any time unit) in kernel units, given the kernel's time
/// measured next to it.
pub fn normalise(raw: f64, kernel_ms: f64) -> f64 {
    raw * REF_MS / kernel_ms
}
