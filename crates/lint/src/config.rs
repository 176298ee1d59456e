//! Rule identities, per-rule path scoping, the cross-file reference
//! configuration (gates, knob modules), and workspace file walking.
//!
//! Scoping is data, not code: each rule carries a [`Scope`] of include
//! and exclude patterns matched against the `/`-separated path relative
//! to the workspace root. [`Config::workspace`] encodes the repo's real
//! invariant map (which crates are "numeric", which modules are the
//! sanctioned env-knob readers, which files are the parallel runtime's
//! hot path); tests
//! substitute their own scopes to point the same rules at fixture
//! files.

use std::io;
use std::path::{Path, PathBuf};

/// The invariant rules, in diagnostic-code order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// SL001 — every `unsafe` needs an adjacent `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// SL002 — no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in
    /// library crates.
    BarePrint,
    /// SL003 — `std::env` reads only in designated knob modules.
    StrayEnvRead,
    /// SL004 — no `HashMap`/`HashSet` in crates doing float math.
    HashmapIterInNumeric,
    /// SL005 — no panicking APIs in the worker/dispatch hot path.
    PanickingApiInHotPath,
    /// SL008 — no `.partial_cmp(…).unwrap()` in numeric crates; it
    /// panics the moment a NaN reaches a sort. Use `f64::total_cmp`,
    /// which agrees with it on every non-NaN pair.
    NanUnwrapCompare,
    /// SL009 — every non-`Relaxed` atomic ordering, and every
    /// `Relaxed` on a configured gate/flag, needs an adjacent
    /// `// ORDERING:` comment (same adjacency contract as SL001's
    /// `SAFETY:`).
    UndocumentedAtomicOrdering,
    /// SL011 — every `"SOCMIX_*"` string must resolve to a knob
    /// declared in a knob module, and every declared knob must be
    /// documented in README.md.
    KnobRegistryDrift,
    /// SL012 — dotted metric names near (edit distance ≤ 2) a
    /// registered instrument name must be registered spellings; a typo
    /// here silently creates a dead counter.
    MetricNameDrift,
}

/// All rules, in order.
pub const RULES: [Rule; 9] = [
    Rule::UndocumentedUnsafe,
    Rule::BarePrint,
    Rule::StrayEnvRead,
    Rule::HashmapIterInNumeric,
    Rule::PanickingApiInHotPath,
    Rule::NanUnwrapCompare,
    Rule::UndocumentedAtomicOrdering,
    Rule::KnobRegistryDrift,
    Rule::MetricNameDrift,
];

impl Rule {
    /// Stable diagnostic code (the contract CI and tooling match on).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UndocumentedUnsafe => "SL001",
            Rule::BarePrint => "SL002",
            Rule::StrayEnvRead => "SL003",
            Rule::HashmapIterInNumeric => "SL004",
            Rule::PanickingApiInHotPath => "SL005",
            Rule::NanUnwrapCompare => "SL008",
            Rule::UndocumentedAtomicOrdering => "SL009",
            Rule::KnobRegistryDrift => "SL011",
            Rule::MetricNameDrift => "SL012",
        }
    }

    /// The rule name as used in allow pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::BarePrint => "bare-print",
            Rule::StrayEnvRead => "stray-env-read",
            Rule::HashmapIterInNumeric => "hashmap-iter-in-numeric",
            Rule::PanickingApiInHotPath => "panicking-api-in-hot-path",
            Rule::NanUnwrapCompare => "nan-unwrap-compare",
            Rule::UndocumentedAtomicOrdering => "undocumented-atomic-ordering",
            Rule::KnobRegistryDrift => "knob-registry-drift",
            Rule::MetricNameDrift => "metric-name-drift",
        }
    }

    /// Looks a rule up by its pragma name.
    pub fn from_name(name: &str) -> Option<Rule> {
        RULES.into_iter().find(|r| r.name() == name)
    }

    /// Whether diagnostics inside `#[cfg(test)]` items are suppressed.
    /// Tests may print, unwrap, hash, and spin on `SeqCst` freely —
    /// the invariants these rules guard protect production numerics
    /// and diagnostics. `unsafe` is the exception: a SAFETY argument
    /// is owed everywhere.
    pub fn exempts_test_code(self) -> bool {
        !matches!(self, Rule::UndocumentedUnsafe)
    }
}

/// Where a rule applies, as substring patterns over the relative path.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// A file is in scope if any pattern is a substring of its path
    /// (empty list: every scanned file is in scope).
    pub include: Vec<String>,
    /// …unless any of these is a substring of its path.
    pub exclude: Vec<String>,
}

impl Scope {
    /// Scope matching every scanned file.
    pub fn everywhere() -> Scope {
        Scope::default()
    }

    /// Scope matching no file — for disabling a rule in a test config.
    pub fn nowhere() -> Scope {
        Scope {
            include: vec!["<nowhere>".to_string()],
            exclude: vec![],
        }
    }

    fn hit(patterns: &[String], rel: &str) -> bool {
        patterns.iter().any(|p| rel.contains(p.as_str()))
    }

    /// Whether `rel` (a `/`-separated workspace-relative path) is in
    /// scope.
    pub fn matches(&self, rel: &str) -> bool {
        (self.include.is_empty() || Scope::hit(&self.include, rel))
            && !Scope::hit(&self.exclude, rel)
    }
}

/// Per-rule scoping plus the cross-file reference configuration for
/// one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    pub undocumented_unsafe: Scope,
    pub bare_print: Scope,
    pub stray_env_read: Scope,
    pub hashmap_iter_in_numeric: Scope,
    pub panicking_api_in_hot_path: Scope,
    pub nan_unwrap_compare: Scope,
    pub atomic_ordering: Scope,
    pub knob_registry: Scope,
    pub metric_drift: Scope,
    /// Atomic gates/flags whose `Relaxed` accesses SL009 also holds to
    /// the `// ORDERING:` contract (matched against identifiers in the
    /// enclosing statement).
    pub ordering_gates: Vec<String>,
    /// Substrings matching the files allowed to *declare* `SOCMIX_*`
    /// knobs (SL011). Empty disables the rule.
    pub knob_modules: Vec<String>,
}

fn strings(patterns: &[&str]) -> Vec<String> {
    patterns.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// The scope governing `rule`.
    pub fn scope(&self, rule: Rule) -> &Scope {
        match rule {
            Rule::UndocumentedUnsafe => &self.undocumented_unsafe,
            Rule::BarePrint => &self.bare_print,
            Rule::StrayEnvRead => &self.stray_env_read,
            Rule::HashmapIterInNumeric => &self.hashmap_iter_in_numeric,
            Rule::PanickingApiInHotPath => &self.panicking_api_in_hot_path,
            Rule::NanUnwrapCompare => &self.nan_unwrap_compare,
            Rule::UndocumentedAtomicOrdering => &self.atomic_ordering,
            Rule::KnobRegistryDrift => &self.knob_registry,
            Rule::MetricNameDrift => &self.metric_drift,
        }
    }

    /// Every rule everywhere — the fixture-test configuration. The
    /// cross-file reference sets (gates, knob modules) start empty, so
    /// SL009 fires only its non-`Relaxed` half and SL011 is inert until
    /// a test configures it; SL012 is inert in any fixture that
    /// registers no metric.
    pub fn all_everywhere() -> Config {
        Config {
            undocumented_unsafe: Scope::everywhere(),
            bare_print: Scope::everywhere(),
            stray_env_read: Scope::everywhere(),
            hashmap_iter_in_numeric: Scope::everywhere(),
            panicking_api_in_hot_path: Scope::everywhere(),
            nan_unwrap_compare: Scope::everywhere(),
            atomic_ordering: Scope::everywhere(),
            knob_registry: Scope::everywhere(),
            metric_drift: Scope::everywhere(),
            ordering_gates: vec![],
            knob_modules: vec![],
        }
    }

    /// The repo's real invariant map (see README, "Static analysis").
    pub fn workspace() -> Config {
        Config {
            // A SAFETY argument is owed at every unsafe site, bins and
            // tests included.
            undocumented_unsafe: Scope::everywhere(),
            // Library crates route output through socmix-obs or a
            // caller-provided writer; binaries own their stdio. The
            // root src/ is the CLI frontend crate and is exempt like
            // the bins.
            bare_print: Scope {
                include: strings(&["crates/"]),
                exclude: strings(&["/src/bin/"]),
            },
            // Every SOCMIX_* knob must stay warn-once-validated and
            // manifest-recorded, so env reads live only in the
            // designated knob modules.
            stray_env_read: Scope {
                include: vec![],
                exclude: strings(&[
                    "crates/obs/src/event.rs",
                    "crates/obs/src/lib.rs",
                    "crates/par/src/lib.rs",
                    "crates/bench/src/manifest.rs",
                    "crates/serve/src/knobs.rs",
                ]),
            },
            // Unordered iteration reorders float accumulation — banned
            // from the crates that do the numerics.
            hashmap_iter_in_numeric: Scope {
                include: strings(&[
                    "crates/linalg/src/",
                    "crates/markov/src/",
                    "crates/core/src/",
                    "crates/community/src/",
                ]),
                exclude: vec![],
            },
            // A panic on these paths must go through the runtime's
            // catch_unwind poisoning protocol. The trace recorder and
            // exporter run inside those same paths (every pool op
            // opens a span), so they are held to the same standard:
            // poisoned ring-buffer locks are
            // recovered, never unwrapped. The serve request path is in
            // scope for the same reason: a panicking worker thread
            // silently drops its connection and, under a poisoned
            // mutex, takes every later request down with it — errors
            // there must be typed 4xx/5xx responses.
            panicking_api_in_hot_path: Scope {
                include: strings(&[
                    "crates/par/src/runtime.rs",
                    "crates/par/src/scheduler.rs",
                    "crates/obs/src/trace.rs",
                    "crates/obs/src/export.rs",
                    "crates/serve/src/server.rs",
                    "crates/serve/src/http.rs",
                    "crates/serve/src/batch.rs",
                    "crates/serve/src/cache.rs",
                    "crates/serve/src/queries.rs",
                    "crates/serve/src/catalog.rs",
                ]),
                exclude: vec![],
            },
            // Measurement data flows through sorts and min/max
            // selections in these crates; a NaN-panicking comparator
            // turns one bad sample into a crashed run. Same scope as
            // the hashmap rule: the crates that do the numerics.
            nan_unwrap_compare: Scope {
                include: strings(&[
                    "crates/linalg/src/",
                    "crates/markov/src/",
                    "crates/core/src/",
                    "crates/community/src/",
                ]),
                exclude: vec![],
            },
            // Memory-ordering justifications are owed everywhere: the
            // pool, the obs gate, the serve stop flag all synchronize
            // through atomics.
            atomic_ordering: Scope::everywhere(),
            knob_registry: Scope::everywhere(),
            metric_drift: Scope::everywhere(),
            // The obs enablement gate is read with Relaxed on every
            // metric/trace call — the single hottest atomic in the
            // workspace, and exactly the place where "relaxed is fine"
            // deserves a written argument.
            ordering_gates: strings(&["GATE"]),
            // The declarers: the knob modules. `bench/manifest.rs`
            // mirrors knob names into run manifests but deliberately
            // does NOT declare — a typo there must fail to resolve.
            knob_modules: strings(&[
                "crates/obs/src/event.rs",
                "crates/obs/src/lib.rs",
                "crates/par/src/lib.rs",
                "crates/serve/src/knobs.rs",
            ]),
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects the lintable sources: `src/` and every `crates/*/src/`
/// (vendored dependency subsets under `vendor/` are not ours to lint).
/// Returns `(relative_path, absolute_path)` pairs sorted by relative
/// path so diagnostics and the audit render deterministically.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let mut files = Vec::new();
    for r in roots {
        collect_rs(&r, &mut files)?;
    }
    let mut out = Vec::new();
    for abs in files {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(&abs)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, abs));
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        let s = Scope {
            include: strings(&["crates/"]),
            exclude: strings(&["/src/bin/"]),
        };
        assert!(s.matches("crates/linalg/src/op.rs"));
        assert!(!s.matches("crates/bench/src/bin/repro.rs"));
        assert!(!s.matches("src/cli.rs"));
        assert!(Scope::everywhere().matches("anything.rs"));
        assert!(!Scope::nowhere().matches("anything.rs"));
    }

    #[test]
    fn rule_names_round_trip() {
        for r in RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Rule::UndocumentedUnsafe.code(), "SL001");
        assert_eq!(Rule::BarePrint.code(), "SL002");
        assert_eq!(Rule::StrayEnvRead.code(), "SL003");
        assert_eq!(Rule::HashmapIterInNumeric.code(), "SL004");
        assert_eq!(Rule::PanickingApiInHotPath.code(), "SL005");
        // SL006/SL007 belong to pragma hygiene, hence the gap
        assert_eq!(Rule::NanUnwrapCompare.code(), "SL008");
        assert_eq!(Rule::UndocumentedAtomicOrdering.code(), "SL009");
        // SL010 (protocol exhaustiveness) is retired with the frame
        // protocol it checked and is not reused, hence the second gap
        assert_eq!(Rule::KnobRegistryDrift.code(), "SL011");
        assert_eq!(Rule::MetricNameDrift.code(), "SL012");
    }
}
