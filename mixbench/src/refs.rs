//! Reference µ for the `spectral` workload's graphs, recorded by
//! `src/bin/record_refs.rs` with `Slem::auto(..).estimate()` at the
//! library's default start seed.
//!
//! The generator's seed changes how hard a Physics 2 stand-in is to
//! solve: over graph seeds 0–31 Lanczos needs 140 to 270 iterations,
//! and a solve's time grows with the square of that count. So that a
//! run's seed changes its inputs but not its amount of work, the
//! workload uses the seeds whose reference solve took 170 iterations,
//! as graph seed 7 (115,779 edges) does. From other start vectors they
//! still differ: over ten 30-second runs, the median solve on graph
//! seed 3 took 9–11% longer than on graph seeds 7 and 10. So every run
//! solves all four in turn, starting at the one its seed picks, and
//! reports the mean of their median solves. A run's solves start
//! Lanczos from other vectors than the reference, so agreement within
//! 1e-6 checks the answer and not only its repetition.

/// `(graph seed, µ)` of Physics 2 at paper scale.
const REFS: [(u64, f64); 4] = [
    (3, 0.9965526426428883),
    (7, 0.9962972825943269),
    (10, 0.9971718734387149),
    (23, 0.9975663475349885),
];

/// Every `(graph seed, µ)` pair, starting at the one a run seed picks.
pub fn rotation(run_seed: u64) -> Vec<(u64, f64)> {
    let first = (run_seed % REFS.len() as u64) as usize;
    (0..REFS.len())
        .map(|i| REFS[(first + i) % REFS.len()])
        .collect()
}
