//! SL009, SL011 and SL012 over the fixture corpus: per-file ordering
//! fixtures, and the cross-file rules run over multi-file in-memory
//! workspaces (a knob registry consumed from a second file, metric
//! registrations measured against spellings elsewhere and in a
//! README).

use socmix_lint::{lint_source, lint_workspace, Config, Workspace};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Assembles fixtures into an in-memory workspace, optionally with a
/// README text for the documentation-drift halves.
fn build_ws(names: &[&str], readme: Option<&str>) -> Workspace {
    let loaded: Vec<(&str, String)> = names.iter().map(|n| (*n, fixture(n))).collect();
    let refs: Vec<(&str, &str)> = loaded.iter().map(|(n, s)| (*n, s.as_str())).collect();
    Workspace::from_sources(&refs, readme)
}

fn codes(diags: &[socmix_lint::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

// ------------------------------------------------------------- SL009

#[test]
fn undocumented_non_relaxed_ordering_fires() {
    let diags = lint_source(
        "ordering_fire.rs",
        &fixture("ordering_fire.rs"),
        &Config::all_everywhere(),
    );
    assert_eq!(codes(&diags), vec!["SL009"; 4], "{diags:?}");
    // the compare_exchange line carries two orderings but one finding
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    let mut deduped = lines.clone();
    deduped.dedup();
    assert_eq!(lines, deduped, "per-line dedupe failed: {lines:?}");
}

#[test]
fn documented_orderings_are_clean() {
    let diags = lint_source(
        "ordering_clean.rs",
        &fixture("ordering_clean.rs"),
        &Config::all_everywhere(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn relaxed_on_configured_gate_requires_doc() {
    let mut cfg = Config::all_everywhere();
    cfg.ordering_gates = vec!["GATE".to_string()];
    let fire = "use std::sync::atomic::{AtomicU8, Ordering};\n\
                static GATE: AtomicU8 = AtomicU8::new(0);\n\
                pub fn peek() -> u8 {\n    GATE.load(Ordering::Relaxed)\n}\n";
    let diags = lint_source("gate.rs", fire, &cfg);
    assert_eq!(codes(&diags), vec!["SL009"], "{diags:?}");
    assert!(diags[0].message.contains("GATE"), "{}", diags[0].message);

    let clean = "use std::sync::atomic::{AtomicU8, Ordering};\n\
                 static GATE: AtomicU8 = AtomicU8::new(0);\n\
                 pub fn peek() -> u8 {\n    \
                 // ORDERING: Relaxed — pure enable flag, guards nothing.\n    \
                 GATE.load(Ordering::Relaxed)\n}\n";
    assert!(lint_source("gate.rs", clean, &cfg).is_empty());

    // ungated Relaxed stays free even with the gate list configured
    let other = "use std::sync::atomic::{AtomicU8, Ordering};\n\
                 static COUNT: AtomicU8 = AtomicU8::new(0);\n\
                 pub fn peek() -> u8 {\n    COUNT.load(Ordering::Relaxed)\n}\n";
    assert!(lint_source("other.rs", other, &cfg).is_empty());
}

// ------------------------------------------------------------- SL011

fn knob_cfg() -> Config {
    let mut cfg = Config::all_everywhere();
    cfg.knob_modules = vec!["knob_mod.rs".to_string()];
    cfg
}

#[test]
fn undeclared_knob_fires_and_declared_resolves() {
    let ws = build_ws(
        &["knob_mod.rs", "knob_use_fire.rs"],
        Some("Both `SOCMIX_ALPHA` and `SOCMIX_BETA` are documented here."),
    );
    let diags = lint_workspace(&ws, &knob_cfg());
    assert_eq!(codes(&diags), vec!["SL011"], "{diags:?}");
    assert_eq!(diags[0].path, "knob_use_fire.rs");
    assert!(
        diags[0].message.contains("SOCMIX_GAMMA"),
        "{}",
        diags[0].message
    );
}

#[test]
fn undocumented_declared_knob_fires_at_declaration() {
    let ws = build_ws(
        &["knob_mod.rs", "knob_use_clean.rs"],
        Some("Only `SOCMIX_ALPHA` made it into the docs."),
    );
    let diags = lint_workspace(&ws, &knob_cfg());
    assert_eq!(codes(&diags), vec!["SL011"], "{diags:?}");
    assert_eq!(diags[0].path, "knob_mod.rs");
    assert!(
        diags[0].message.contains("SOCMIX_BETA") && diags[0].message.contains("README"),
        "{}",
        diags[0].message
    );
}

#[test]
fn fully_declared_and_documented_knobs_are_clean() {
    let ws = build_ws(
        &["knob_mod.rs", "knob_use_clean.rs"],
        Some("Both `SOCMIX_ALPHA` and `SOCMIX_BETA` are documented here."),
    );
    assert!(lint_workspace(&ws, &knob_cfg()).is_empty());
}

#[test]
fn knob_rule_is_inert_without_a_knob_module() {
    // consumers alone can't witness the registry — no fires
    let ws = build_ws(&["knob_use_fire.rs"], Some("docs"));
    assert!(lint_workspace(&ws, &knob_cfg()).is_empty());
}

// ------------------------------------------------------------- SL012

#[test]
fn metric_near_miss_spellings_fire() {
    let ws = build_ws(&["metric_reg.rs", "metric_fire.rs"], None);
    let diags = lint_workspace(&ws, &Config::all_everywhere());
    assert_eq!(codes(&diags), vec!["SL012"; 2], "{diags:?}");
    assert!(diags.iter().all(|d| d.path == "metric_fire.rs"));
    let has = |needle: &str| diags.iter().any(|d| d.message.contains(needle));
    assert!(has("`cache.hit`") && has("`cache.hits`"), "{diags:?}");
    assert!(has("`req.latns`") && has("`req.lat_ns`"), "{diags:?}");
}

#[test]
fn exact_and_distant_metric_names_are_clean() {
    let ws = build_ws(&["metric_reg.rs", "metric_clean.rs"], None);
    let diags = lint_workspace(&ws, &Config::all_everywhere());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn readme_metric_near_miss_fires_on_readme() {
    let ws = build_ws(
        &["metric_reg.rs"],
        Some("Watch the `cache.hitz` counter on the dashboard."),
    );
    let diags = lint_workspace(&ws, &Config::all_everywhere());
    assert_eq!(codes(&diags), vec!["SL012"], "{diags:?}");
    assert_eq!(diags[0].path, "README.md");
    assert!(
        diags[0].message.contains("cache.hitz"),
        "{}",
        diags[0].message
    );
}

#[test]
fn metric_rule_is_inert_without_registrations() {
    let ws = build_ws(&["metric_fire.rs"], None);
    assert!(lint_workspace(&ws, &Config::all_everywhere()).is_empty());
}

// ------------------------------------------------ solo-file inertness

#[test]
fn cross_file_fixtures_are_quiet_in_single_file_runs() {
    // the reference-set gating keeps `socmix-lint check one-file.rs`
    // (and editor integrations) from reporting phantom drift
    for name in ["knob_use_fire.rs", "metric_fire.rs"] {
        let diags = lint_source(name, &fixture(name), &Config::all_everywhere());
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}
