//! Shared harness utilities for the `repro` binary and the Criterion
//! benches: run configuration, aligned-table/CSV output, JSON run
//! manifests, the bench-regression gate (`compare`), and the
//! walk-length grids the paper's figures use.

#![forbid(unsafe_code)]

pub mod compare;
pub mod manifest;
pub mod output;
pub mod pipeline;
pub mod runcfg;

pub use manifest::{git_describe, run_manifest};
pub use output::{Csv, Table};
pub use pipeline::{run_pipeline, stage_config_hash, PipelineOptions, StageDef, StageOutcome};
pub use runcfg::RunConfig;

/// The short walk lengths of the paper's Figure 3 CDFs.
pub const FIG3_LENGTHS: [usize; 5] = [1, 5, 10, 20, 40];

/// The long walk lengths of the paper's Figure 4 CDFs.
pub const FIG4_LENGTHS: [usize; 6] = [80, 100, 200, 300, 400, 500];

/// The walk-length sweep of the Figure 8 admission experiment.
pub const FIG8_LENGTHS: [usize; 10] = [1, 2, 3, 5, 7, 10, 15, 20, 30, 50];

/// CDF sample points (fractions of the way through a sorted sample)
/// printed by the CDF figures.
pub const CDF_POINTS: [f64; 9] = [0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99];
