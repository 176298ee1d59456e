//! Bench-regression gate: diff a freshly recorded bench JSON against
//! a committed `BENCH_<name>.json` baseline.
//!
//! The vendored criterion harness writes one flat array of rows
//! (`{"id", "min_ns", "median_ns", "mean_ns", ...}`) per bench target;
//! the committed copies are the performance record of this repo. The
//! `compare` binary re-reads both sides, flags any benchmark whose
//! fresh median exceeds the baseline by more than a noise threshold,
//! and exits nonzero — CI's perf gate, and the tool that decides when
//! a baseline (and the trajectory file next to it) should be
//! re-recorded.
//!
//! Medians are compared (not means): single-shot outliers from a busy
//! machine land in the mean, the median shrugs them off. The default
//! threshold is intentionally loose (30%) — shared-runner noise on
//! sub-microsecond benches is real, and the gate exists to catch
//! "accidentally made the disabled path 5x slower", not 3% drift.

use socmix_obs::Value;

/// Default relative noise threshold (fraction of the baseline median).
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// One benchmark row from a recorded bench JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark id, e.g. `"obs_disabled/span_start_drop"`.
    pub id: String,
    /// Median wall time per iteration in nanoseconds.
    pub median_ns: f64,
}

/// One baseline/fresh pair for a benchmark present on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub id: String,
    pub baseline_ns: f64,
    pub fresh_ns: f64,
    /// `fresh / baseline` (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
}

/// The outcome of diffing a fresh recording against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Benchmarks slower than `baseline * (1 + threshold)`.
    pub regressions: Vec<Delta>,
    /// Benchmarks faster than `baseline * (1 - threshold)`.
    pub improvements: Vec<Delta>,
    /// Benchmarks within the noise threshold either way.
    pub unchanged: Vec<Delta>,
    /// Baseline ids absent from the fresh recording.
    pub missing: Vec<String>,
    /// Fresh ids absent from the baseline.
    pub added: Vec<String>,
    /// Pairs with no defined relative delta: a zero or unparseable
    /// median on either side. Report-only, like `missing`/`added` — a
    /// NaN ratio must never masquerade as "within noise".
    pub unmeasurable: Vec<Delta>,
}

impl Comparison {
    /// The gate verdict: regressions fail, everything else passes.
    /// Missing/added ids are reported but do not fail the gate — they
    /// mean the bench *set* changed, which the baseline re-record (a
    /// reviewed diff of `BENCH_*.json`) documents on its own.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Parses a recorded bench JSON file into rows.
///
/// Rows without an `id` are rejected, not skipped: a malformed
/// baseline silently shrinking to zero rows would make every future
/// comparison vacuously pass. A missing, non-finite, or negative
/// `median_ns` keeps the row but records the median as NaN — the id
/// stays visible to the diff, and [`compare`] classifies the pair as
/// report-only instead of letting a NaN delta pass as within-noise.
pub fn parse_bench(text: &str) -> Result<Vec<BenchRow>, String> {
    let doc = socmix_obs::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Arr(rows) = doc else {
        return Err("expected a top-level array of bench rows".into());
    };
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let id = row
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: missing \"id\""))?;
        let median = row
            .get("median_ns")
            .and_then(Value::as_f64)
            .filter(|m| m.is_finite() && *m >= 0.0)
            .unwrap_or(f64::NAN);
        out.push(BenchRow {
            id: id.to_string(),
            median_ns: median,
        });
    }
    Ok(out)
}

/// Diffs `fresh` against `baseline` with a relative `threshold`
/// (fraction of the baseline median; see [`DEFAULT_THRESHOLD`]).
///
/// Matching is by id; each output list is sorted by id so reports are
/// stable regardless of recording order. Duplicate ids keep the first
/// occurrence (the harness never emits duplicates; a hand-edited file
/// that does is still compared deterministically).
pub fn compare(baseline: &[BenchRow], fresh: &[BenchRow], threshold: f64) -> Comparison {
    use std::collections::BTreeMap;
    let index = |rows: &[BenchRow]| -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for r in rows {
            m.entry(r.id.clone()).or_insert(r.median_ns);
        }
        m
    };
    let base = index(baseline);
    let new = index(fresh);
    let mut c = Comparison::default();
    for (id, &baseline_ns) in &base {
        let Some(&fresh_ns) = new.get(id) else {
            c.missing.push(id.clone());
            continue;
        };
        // A relative delta needs a positive, finite baseline and a
        // finite fresh median. A zero baseline (sub-resolution bench)
        // or a NaN from a malformed row has no defined ratio — and a
        // NaN ratio fails every comparison below, which used to slide
        // such pairs into `unchanged` as if they had been checked.
        // They are report-only instead, like missing/added ids.
        if !(baseline_ns > 0.0 && baseline_ns.is_finite() && fresh_ns.is_finite()) {
            c.unmeasurable.push(Delta {
                id: id.clone(),
                baseline_ns,
                fresh_ns,
                ratio: f64::NAN,
            });
            continue;
        }
        let ratio = fresh_ns / baseline_ns;
        let d = Delta {
            id: id.clone(),
            baseline_ns,
            fresh_ns,
            ratio,
        };
        if ratio > 1.0 + threshold {
            c.regressions.push(d);
        } else if ratio < 1.0 - threshold {
            c.improvements.push(d);
        } else {
            c.unchanged.push(d);
        }
    }
    for id in new.keys() {
        if !base.contains_key(id) {
            c.added.push(id.clone());
        }
    }
    c
}

/// Renders the comparison as an aligned human-readable report.
pub fn render(c: &Comparison, threshold: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut section = |title: &str, rows: &[Delta]| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for d in rows {
            let _ = writeln!(
                out,
                "  {:<40} {:>12.1} ns -> {:>12.1} ns  ({:+.1}%)",
                d.id,
                d.baseline_ns,
                d.fresh_ns,
                (d.ratio - 1.0) * 100.0
            );
        }
    };
    section("REGRESSED", &c.regressions);
    section("improved", &c.improvements);
    section("unchanged", &c.unchanged);
    for d in &c.unmeasurable {
        let _ = writeln!(
            out,
            "  no defined delta (zero or malformed median): {} ({} ns -> {} ns)",
            d.id, d.baseline_ns, d.fresh_ns
        );
    }
    for id in &c.missing {
        let _ = writeln!(out, "  missing from fresh run: {id}");
    }
    for id in &c.added {
        let _ = writeln!(out, "  new benchmark (no baseline): {id}");
    }
    let _ = writeln!(
        out,
        "{} regressed, {} improved, {} unchanged, {} unmeasurable (threshold {:.0}%)",
        c.regressions.len(),
        c.improvements.len(),
        c.unchanged.len(),
        c.unmeasurable.len(),
        threshold * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, median: f64) -> BenchRow {
        BenchRow {
            id: id.into(),
            median_ns: median,
        }
    }

    #[test]
    fn parses_the_recorded_format() {
        let text = r#"[
          {"id":"a/x","min_ns":0.7,"median_ns":0.9,"mean_ns":0.9,"samples":10,"iters_per_sample":86206},
          {"id":"a/y","min_ns":0.4,"median_ns":0.4,"mean_ns":0.5,"samples":10,"iters_per_sample":222222}
        ]"#;
        let rows = parse_bench(text).unwrap();
        assert_eq!(rows, vec![row("a/x", 0.9), row("a/y", 0.4)]);
    }

    #[test]
    fn parses_every_committed_baseline() {
        // The gate must be able to read its own repo's baselines.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"));
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let rows = parse_bench(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} has no rows");
            seen.push(name.into_owned());
        }
        for want in ["batch", "obs", "pool", "serve"] {
            let file = format!("BENCH_{want}.json");
            assert!(seen.contains(&file), "{file} not found among {seen:?}");
        }
    }

    #[test]
    fn malformed_rows_are_errors_not_skips() {
        assert!(parse_bench("{}").is_err());
        assert!(parse_bench(r#"[{"median_ns":1.0}]"#).is_err(), "missing id");
    }

    #[test]
    fn malformed_medians_parse_as_nan_not_errors() {
        // The id must survive so the diff can report the pair; the
        // median becomes NaN, which `compare` routes to report-only.
        let rows = parse_bench(r#"[{"id":"a"},{"id":"b","median_ns":-1.0}]"#).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "a");
        assert!(rows[0].median_ns.is_nan(), "missing median is NaN");
        assert!(rows[1].median_ns.is_nan(), "negative median is NaN");
    }

    #[test]
    fn classifies_against_the_threshold() {
        let base = [row("fast", 100.0), row("slow", 100.0), row("same", 100.0)];
        let fresh = [row("fast", 60.0), row("slow", 140.0), row("same", 110.0)];
        let c = compare(&base, &fresh, 0.30);
        assert_eq!(c.regressions.len(), 1);
        assert_eq!(c.regressions[0].id, "slow");
        assert!((c.regressions[0].ratio - 1.4).abs() < 1e-12);
        assert_eq!(c.improvements.len(), 1);
        assert_eq!(c.improvements[0].id, "fast");
        assert_eq!(c.unchanged.len(), 1);
        assert!(!c.passed());
    }

    #[test]
    fn exactly_at_threshold_is_not_a_regression() {
        let c = compare(&[row("a", 100.0)], &[row("a", 130.0)], 0.30);
        assert!(c.passed());
        assert_eq!(c.unchanged.len(), 1);
    }

    #[test]
    fn missing_and_added_are_reported_but_pass() {
        let c = compare(&[row("gone", 5.0)], &[row("new", 5.0)], 0.30);
        assert!(c.passed());
        assert_eq!(c.missing, vec!["gone".to_string()]);
        assert_eq!(c.added, vec!["new".to_string()]);
    }

    #[test]
    fn zero_or_nan_baseline_is_report_only_never_within_noise() {
        // The satellite bug: a zero or missing baseline median made
        // the relative delta NaN (or ±inf), and NaN fails both
        // threshold comparisons — so the pair silently landed in
        // `unchanged`, i.e. "checked and fine". Such pairs must be
        // surfaced as unmeasurable instead, without failing the gate.
        for bad in [0.0, f64::NAN] {
            let c = compare(&[row("z", bad)], &[row("z", 2.0)], 0.30);
            assert!(c.passed(), "report-only, like missing/added ids");
            assert!(c.unchanged.is_empty(), "must not classify as within-noise");
            assert!(c.regressions.is_empty() && c.improvements.is_empty());
            assert_eq!(c.unmeasurable.len(), 1);
            assert_eq!(c.unmeasurable[0].id, "z");
            assert!(c.unmeasurable[0].ratio.is_nan());
        }
        // A NaN fresh median against a good baseline is just as
        // undefined.
        let c = compare(&[row("z", 5.0)], &[row("z", f64::NAN)], 0.30);
        assert!(c.passed());
        assert_eq!(c.unmeasurable.len(), 1);
        // And the report names the pair so re-records are prompted.
        let text = render(&c, 0.30);
        assert!(text.contains("no defined delta"), "{text}");
        assert!(text.contains("1 unmeasurable"), "{text}");
    }

    #[test]
    fn report_names_regressions_and_counts() {
        let c = compare(&[row("a/b", 100.0)], &[row("a/b", 200.0)], 0.30);
        let text = render(&c, 0.30);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("a/b"));
        assert!(text.contains("+100.0%"));
        assert!(text.contains("1 regressed"));
    }
}
