//! Pass 2's workspace layer: the [`Workspace`] aggregate and the
//! cross-file rules (SL010–SL012).
//!
//! These rules check contracts no single file can witness: a wire
//! protocol's opcode table lives in one module and its dispatch
//! `match` in another (SL010), a `SOCMIX_*` knob is declared in a knob
//! module, echoed by consumers elsewhere, and documented in README.md
//! (SL011), and a metric name registered in one crate is asserted or
//! documented in others (SL012). Each rule therefore runs over the
//! whole [`Workspace`] — every file's [`FileIndex`] plus the README
//! text — after the per-file rules have run.
//!
//! A cross-file rule only fires when its **reference set** is actually
//! loaded: SL010 skips a protocol whose declaration file is not in the
//! workspace, SL011 is inert until a configured knob module is present,
//! and SL012 until at least one metric registration is. This keeps
//! single-file invocations (`socmix-lint check path.rs`, the fixture
//! tests, editor integrations) from reporting half the workspace as
//! missing.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{Config, ProtocolSpec, Rule};
use crate::index::{ConstItem, FileIndex};
use crate::rules::{apply_pragmas, run_per_file_rules, Analysis, Diagnostic};

/// One analyzed source file: the token-level `Analysis` (pass 1a)
/// and the item-level [`FileIndex`] (pass 1b), both built exactly once
/// and shared by every rule and audit renderer.
pub struct SourceFile {
    /// `/`-separated workspace-relative path, as scoping matches it.
    pub rel: String,
    pub(crate) analysis: Analysis,
    pub index: FileIndex,
}

impl SourceFile {
    pub fn new(rel: &str, src: &str) -> SourceFile {
        let analysis = Analysis::new(src);
        let index = FileIndex::build(&analysis);
        SourceFile {
            rel: rel.to_string(),
            analysis,
            index,
        }
    }
}

/// Every analyzed file plus the workspace-level reference documents.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// README.md text, for the documentation-drift halves of SL011 and
    /// SL012 (`None`: mention checks are skipped).
    pub readme: Option<String>,
}

impl Workspace {
    /// Builds a workspace from in-memory sources — the test entry
    /// point, and the shape `lint_source` wraps a single file in.
    pub fn from_sources(sources: &[(&str, &str)], readme: Option<&str>) -> Workspace {
        Workspace {
            files: sources
                .iter()
                .map(|(rel, src)| SourceFile::new(rel, src))
                .collect(),
            readme: readme.map(str::to_string),
        }
    }

    /// Reads and analyzes `files` (`(rel, abs)` pairs from
    /// [`crate::config::workspace_files`] or an explicit path list)
    /// plus the root README.md when present.
    pub fn load(root: &Path, files: &[(String, PathBuf)]) -> io::Result<Workspace> {
        let mut out = Vec::with_capacity(files.len());
        for (rel, abs) in files {
            let src = std::fs::read_to_string(abs)?;
            out.push(SourceFile::new(rel, &src));
        }
        Ok(Workspace {
            files: out,
            readme: std::fs::read_to_string(root.join("README.md")).ok(),
        })
    }
}

/// Lints the whole workspace: per-file rules on every file, then the
/// cross-file rules, then each file's allow pragmas over the combined
/// diagnostic list (so a pragma can suppress a cross-file finding that
/// landed in its file), sorted by position for stable output.
pub fn lint_workspace(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &ws.files {
        run_per_file_rules(&f.rel, &f.analysis, &f.index, cfg, &mut diags);
    }
    rule_protocol_exhaustiveness(ws, cfg, &mut diags);
    rule_knob_registry(ws, cfg, &mut diags);
    rule_metric_drift(ws, cfg, &mut diags);
    for f in &ws.files {
        apply_pragmas(&f.rel, &f.analysis, &mut diags);
    }
    diags.sort_by(|x, y| {
        (x.path.as_str(), x.line, x.col, x.code).cmp(&(y.path.as_str(), y.line, y.col, y.code))
    });
    diags
}

/// Lints one source file as a single-file workspace.
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    lint_workspace(&Workspace::from_sources(&[(rel, src)], None), cfg)
}

fn push(out: &mut Vec<Diagnostic>, rule: Rule, path: &str, line: u32, col: u32, message: String) {
    out.push(Diagnostic {
        code: rule.code(),
        rule: rule.name(),
        path: path.to_string(),
        line,
        col,
        message,
    });
}

/// One protocol's resolved opcode table.
struct Table<'a> {
    spec: &'a ProtocolSpec,
    decl_rel: &'a str,
    consts: Vec<&'a ConstItem>,
}

/// Whether a const belongs to a protocol table: `OP_*`/`REPLY_*` and
/// typed `u8` (the frame header's opcode byte).
fn is_protocol_const(c: &ConstItem) -> bool {
    !c.in_test && c.type_text == "u8" && (c.name.starts_with("OP_") || c.name.starts_with("REPLY_"))
}

// ---------------------------------------------------------------- SL010

fn rule_protocol_exhaustiveness(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let rule = Rule::ProtocolExhaustiveness;
    let scope = cfg.scope(rule);
    let mut tables: Vec<Table> = Vec::new();
    for spec in &cfg.protocols {
        let Some(file) = ws.files.iter().find(|f| f.rel.contains(&spec.decl)) else {
            continue; // reference set not loaded
        };
        if !scope.matches(&file.rel) {
            continue;
        }
        tables.push(Table {
            spec,
            decl_rel: &file.rel,
            consts: file
                .index
                .consts
                .iter()
                .filter(|c| is_protocol_const(c))
                .collect(),
        });
    }

    for t in &tables {
        // every table entry must be a checkable literal, and values
        // must be unique within the protocol (ops and replies share
        // the frame header's one opcode byte, so they share the space)
        let mut seen: Vec<(u64, &str)> = Vec::new();
        for c in &t.consts {
            let Some(v) = c.value else {
                push(
                    out,
                    rule,
                    t.decl_rel,
                    c.line,
                    c.col,
                    format!(
                        "protocol `{}` opcode `{}` is not a single integer literal — \
                         the table cannot be checked for collisions",
                        t.spec.name, c.name
                    ),
                );
                continue;
            };
            if let Some((_, prev)) = seen.iter().find(|(pv, _)| *pv == v) {
                push(
                    out,
                    rule,
                    t.decl_rel,
                    c.line,
                    c.col,
                    format!(
                        "duplicate opcode value {v:#04x} in protocol `{}`: `{}` collides \
                         with `{prev}`",
                        t.spec.name, c.name
                    ),
                );
            } else {
                seen.push((v, &c.name));
            }
        }

        // dispatch and payload-cap coverage for the request opcodes
        let in_cap_fn = |file_rel: &str, in_fn: Option<&str>| -> bool {
            t.spec
                .cap_fn
                .as_ref()
                .is_some_and(|(cf, cfn)| file_rel.contains(cf.as_str()) && in_fn == Some(cfn))
        };
        let mut dispatched: BTreeSet<&str> = BTreeSet::new();
        let mut capped: BTreeSet<&str> = BTreeSet::new();
        for f in &ws.files {
            let is_dispatch = t.spec.dispatch.iter().any(|d| f.rel.contains(d.as_str()));
            let is_cap_file = t
                .spec
                .cap_fn
                .as_ref()
                .is_some_and(|(cf, _)| f.rel.contains(cf.as_str()));
            if !is_dispatch && !is_cap_file {
                continue;
            }
            for p in &f.index.match_pats {
                if p.in_test {
                    continue;
                }
                if in_cap_fn(&f.rel, p.in_fn.as_deref()) {
                    capped.insert(p.ident.as_str());
                } else if is_dispatch {
                    dispatched.insert(p.ident.as_str());
                }
            }
        }
        for c in &t.consts {
            if !c.name.starts_with("OP_") {
                continue;
            }
            if !t.spec.dispatch.is_empty() && !dispatched.contains(c.name.as_str()) {
                push(
                    out,
                    rule,
                    t.decl_rel,
                    c.line,
                    c.col,
                    format!(
                        "opcode `{}` has no match arm in protocol `{}`'s dispatch ({})",
                        c.name,
                        t.spec.name,
                        t.spec.dispatch.join(", ")
                    ),
                );
            }
            if let Some((cap_file, cap_fn)) = &t.spec.cap_fn {
                if !capped.contains(c.name.as_str()) {
                    push(
                        out,
                        rule,
                        t.decl_rel,
                        c.line,
                        c.col,
                        format!(
                            "opcode `{}` has no explicit entry in protocol `{}`'s \
                             payload-cap table (`{cap_fn}` in {cap_file})",
                            c.name, t.spec.name
                        ),
                    );
                }
            }
        }
    }

    // the protocols must not collide with each other: a frame sent to
    // the wrong listener has to die as an unknown opcode, which only
    // works while the value spaces stay disjoint
    for i in 0..tables.len() {
        for j in i + 1..tables.len() {
            let (a, b) = (&tables[i], &tables[j]);
            for cb in &b.consts {
                let Some(v) = cb.value else { continue };
                if let Some(ca) = a.consts.iter().find(|c| c.value == Some(v)) {
                    push(
                        out,
                        Rule::ProtocolExhaustiveness,
                        b.decl_rel,
                        cb.line,
                        cb.col,
                        format!(
                            "opcode value {v:#04x} collides across protocols: `{}` in \
                             `{}` vs `{}` in `{}` ({})",
                            cb.name, b.spec.name, ca.name, a.spec.name, a.decl_rel
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- SL011

/// Extracts every `SOCMIX_*` token from a string: maximal
/// `[A-Z0-9_]+` runs starting at a word-boundary `SOCMIX_`, with at
/// least one character after the prefix.
fn extract_knobs(s: &str) -> Vec<&str> {
    const PREFIX: &str = "SOCMIX_";
    let bytes = s.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = s[from..].find(PREFIX).map(|p| p + from) {
        let bounded = pos == 0 || !word(bytes[pos - 1]);
        let mut end = pos + PREFIX.len();
        while end < s.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if bounded && end > pos + PREFIX.len() {
            out.push(&s[pos..end]);
        }
        from = pos + PREFIX.len();
    }
    out
}

/// Word-boundary substring search: `word` appears in `text` not glued
/// to other identifier characters (so `SOCMIX_THREAD` does not count as
/// a mention of itself inside `SOCMIX_THREADS`).
fn mentions_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = text[from..].find(word).map(|p| p + from) {
        let end = pos + word.len();
        let pre = pos == 0 || !is_word(bytes[pos - 1]);
        let post = end == text.len() || !is_word(bytes[end]);
        if pre && post {
            return true;
        }
        from = pos + 1;
    }
    false
}

fn rule_knob_registry(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let rule = Rule::KnobRegistryDrift;
    let scope = cfg.scope(rule);
    if cfg.knob_modules.is_empty() {
        return;
    }
    let is_knob_module = |rel: &str| cfg.knob_modules.iter().any(|m| rel.contains(m.as_str()));
    if !ws.files.iter().any(|f| is_knob_module(&f.rel)) {
        return; // reference set not loaded
    }

    // the registry: first declaration site of each knob, in knob-module
    // string literals (attribute strings are docs, not declarations)
    let mut declared: BTreeMap<String, (String, u32, u32)> = BTreeMap::new();
    for f in ws.files.iter().filter(|f| is_knob_module(&f.rel)) {
        for s in &f.index.strings {
            if s.in_test || s.in_attr {
                continue;
            }
            for knob in extract_knobs(&s.value) {
                declared
                    .entry(knob.to_string())
                    .or_insert_with(|| (f.rel.clone(), s.line, s.col));
            }
        }
    }

    // every SOCMIX_* string outside the knob modules must resolve to a
    // declared knob — an unresolved one is a typo or a knob read that
    // bypassed the registry
    for f in &ws.files {
        if !scope.matches(&f.rel) || is_knob_module(&f.rel) {
            continue;
        }
        for s in &f.index.strings {
            if s.in_test || s.in_attr {
                continue;
            }
            for knob in extract_knobs(&s.value) {
                if !declared.contains_key(knob) {
                    push(
                        out,
                        rule,
                        &f.rel,
                        s.line,
                        s.col,
                        format!(
                            "`{knob}` does not resolve to any knob declared in a knob \
                             module — typo, or an env read bypassing the registry"
                        ),
                    );
                }
            }
        }
    }

    // every declared knob must be documented in README.md
    if let Some(readme) = &ws.readme {
        for (knob, (rel, line, col)) in &declared {
            if !mentions_word(readme, knob) {
                push(
                    out,
                    rule,
                    rel,
                    *line,
                    *col,
                    format!("knob `{knob}` is not documented in README.md"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- SL012

/// Whether a string looks like a dotted instrument name:
/// `seg(.seg)+` with lowercase/digit/underscore segments, starting
/// with a letter.
fn looks_like_metric(s: &str) -> bool {
    let mut segs = 0;
    for (i, seg) in s.split('.').enumerate() {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        if i == 0 && !seg.as_bytes()[0].is_ascii_lowercase() {
            return false;
        }
        segs += 1;
    }
    segs >= 2
}

/// Levenshtein edit distance, early-rejecting when the length gap
/// alone exceeds `cap`.
fn edit_distance_within(a: &str, b: &str, cap: usize) -> bool {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    if a.len().abs_diff(b.len()) > cap {
        return false;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        let mut row_min = cur[0];
        for j in 1..=b.len() {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
            row_min = row_min.min(cur[j]);
        }
        if row_min > cap {
            return false;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()] <= cap
}

fn rule_metric_drift(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let rule = Rule::MetricNameDrift;
    let scope = cfg.scope(rule);

    // canonical set: names actually registered on instruments (test
    // regions register throwaway `test.*` names and are excluded)
    let canonical: BTreeSet<&str> = ws
        .files
        .iter()
        .flat_map(|f| f.index.metrics.iter())
        .filter(|m| !m.in_test)
        .map(|m| m.name.as_str())
        .collect();
    if canonical.is_empty() {
        return; // reference set not loaded
    }
    let near = |cand: &str| {
        canonical
            .iter()
            .find(|c| edit_distance_within(cand, c, 2))
            .copied()
    };

    for f in &ws.files {
        if !scope.matches(&f.rel) {
            continue;
        }
        for s in &f.index.strings {
            if s.in_test || s.in_attr {
                continue;
            }
            let v = s.value.as_str();
            if !looks_like_metric(v) || canonical.contains(v) {
                continue;
            }
            if let Some(c) = near(v) {
                push(
                    out,
                    rule,
                    &f.rel,
                    s.line,
                    s.col,
                    format!(
                        "`{v}` is within edit distance 2 of registered metric `{c}` \
                         but is not itself registered — spelling drift"
                    ),
                );
            }
        }
    }

    // documented names drift too: README `code spans` that look like
    // metrics must match a registered spelling when they are close to
    // one
    if let Some(readme) = &ws.readme {
        for (lineno, line) in readme.lines().enumerate() {
            for (col, span) in backtick_spans(line) {
                if !looks_like_metric(span) || canonical.contains(span) {
                    continue;
                }
                if let Some(c) = near(span) {
                    push(
                        out,
                        rule,
                        "README.md",
                        (lineno + 1) as u32,
                        col as u32,
                        format!(
                            "documented name `{span}` is within edit distance 2 of \
                             registered metric `{c}` but is not a registered spelling"
                        ),
                    );
                }
            }
        }
    }
}

/// Single-line `` `code` `` spans of a markdown line, with the 1-based
/// column of the opening backtick.
fn backtick_spans(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    let mut base = 0;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push((base + open + 1, &after[..close]));
        let consumed = open + 1 + close + 1;
        base += consumed;
        rest = &rest[consumed..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_extraction_respects_boundaries() {
        assert_eq!(
            extract_knobs("set SOCMIX_THREADS or SOCMIX_LOG=debug"),
            vec!["SOCMIX_THREADS", "SOCMIX_LOG"]
        );
        assert_eq!(extract_knobs("NOT_SOCMIX_THREADS"), Vec::<&str>::new());
        assert_eq!(extract_knobs("SOCMIX_"), Vec::<&str>::new());
        assert_eq!(
            extract_knobs("SOCMIX_A SOCMIX_B"),
            vec!["SOCMIX_A", "SOCMIX_B"]
        );
    }

    #[test]
    fn word_boundary_mentions() {
        assert!(mentions_word("use `SOCMIX_THREADS` to", "SOCMIX_THREADS"));
        assert!(!mentions_word("use SOCMIX_THREADS to", "SOCMIX_THREAD"));
        assert!(mentions_word(
            "SOCMIX_THREAD and SOCMIX_THREADS",
            "SOCMIX_THREAD"
        ));
    }

    #[test]
    fn metric_shape() {
        assert!(looks_like_metric("serve.shed"));
        assert!(looks_like_metric("gen.cache.hit"));
        assert!(looks_like_metric("par.lat_ns"));
        assert!(!looks_like_metric("Serve.shed"));
        assert!(!looks_like_metric("shed"));
        assert!(!looks_like_metric("serve..shed"));
        assert!(!looks_like_metric("1.2.3"));
        assert!(!looks_like_metric("serve.{}"));
    }

    #[test]
    fn edit_distance_cap() {
        assert!(edit_distance_within("serve.shed", "serve.shed", 2));
        assert!(edit_distance_within("serve.shed", "serve.sheds", 2));
        assert!(edit_distance_within("gen.cache.hit", "gen.cache.hits", 2));
        assert!(!edit_distance_within("gen.cache.hit", "gen.cache.miss", 2));
        assert!(!edit_distance_within("a.b", "completely.else", 2));
    }

    #[test]
    fn backtick_span_extraction() {
        assert_eq!(
            backtick_spans("a `x.y` and `z` end"),
            vec![(3, "x.y"), (13, "z")]
        );
        assert_eq!(backtick_spans("no spans"), Vec::<(usize, &str)>::new());
        assert_eq!(
            backtick_spans("dangling `open"),
            Vec::<(usize, &str)>::new()
        );
    }
}
