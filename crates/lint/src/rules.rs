//! The token-stream rule engine: file analysis, the per-file rules,
//! and allow-pragma application.
//!
//! A rule never looks at raw text — it walks the significant tokens of
//! [`crate::lexer::lex`], with several derived views reconstructed from
//! the stream:
//!
//! - a **line map** (which lines hold code, attributes, comments, and
//!   which comments carry a justification marker such as `SAFETY:` or
//!   `ORDERING:`),
//! - an **occurrence index** (identifier text → token positions), so a
//!   file is lexed once and every rule jumps straight to its trigger
//!   tokens instead of re-scanning the stream,
//! - **test regions** (`#[cfg(test)]` items, whose lines most rules
//!   exempt — see [`Rule::exempts_test_code`]),
//! - **allow pragmas** (per-site suppressions; each must name a known
//!   rule and carry a justification, and unused ones are themselves
//!   diagnostics, so stale allows can't accumulate).
//!
//! Diagnostics carry stable `SLxxx` codes: SL001–SL005 and SL008 are
//! the original per-file rules, SL009 is the per-file half of the
//! cross-file family (the workspace-level rules SL011–SL012 live in
//! [`crate::cross`]); SL006 (malformed pragma) and SL007 (unused
//! pragma) are pragma hygiene and can never be suppressed by a pragma.

use std::collections::HashMap;

use crate::config::{Config, Rule, RULES};
use crate::index::{FileIndex, OrderingSite};
use crate::lexer::{lex, Token, TokenKind};

/// The comment marker that introduces an allow pragma.
const PRAGMA_MARKER: &str = "socmix-lint:";

/// Diagnostic code for a malformed allow pragma.
pub const CODE_MALFORMED_PRAGMA: &str = "SL006";
/// Diagnostic code for an allow pragma that suppressed nothing.
pub const CODE_UNUSED_PRAGMA: &str = "SL007";

/// One finding, with a stable code and a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// The `path:line:col: CODE [rule] message` rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} [{}] {}",
            self.path, self.line, self.col, self.code, self.rule, self.message
        )
    }
}

/// A parsed allow pragma awaiting its target diagnostic.
#[derive(Debug)]
struct Pragma {
    rules: Vec<Rule>,
    /// The line whose diagnostics this pragma suppresses (0: targets
    /// nothing, reported as unused).
    target: u32,
    line: u32,
}

/// Token stream plus the derived per-line and per-region views. Built
/// once per file (pass 1) and shared by every rule, the item index,
/// and the audit renderers.
pub(crate) struct Analysis {
    tokens: Vec<Token>,
    /// Indices of significant (non-comment) tokens.
    sig: Vec<usize>,
    /// Per-sig-token attribute membership (`#[…]` / `#![…]` spans).
    attr: Vec<bool>,
    /// Identifier text → ascending sig positions: the occurrence index
    /// the rules jump through instead of re-scanning the stream.
    occ: HashMap<String, Vec<usize>>,
    /// 1-based per-line flags.
    has_sig: Vec<bool>,
    has_nonattr_sig: Vec<bool>,
    /// 1-based per-line concatenated comment text (None: no comment).
    comment: Vec<Option<String>>,
    /// Inclusive line ranges of `#[cfg(test)]` items.
    test_regions: Vec<(u32, u32)>,
    pragmas: Vec<Pragma>,
    /// Malformed pragmas: (line, explanation).
    pragma_errors: Vec<(u32, String)>,
}

impl Analysis {
    pub(crate) fn new(src: &str) -> Analysis {
        let tokens = lex(src);
        let max_line = tokens.iter().map(Token::end_line).max().unwrap_or(0) as usize;
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].kind.is_significant())
            .collect();
        let attr = attribute_spans(&tokens, &sig);

        let mut occ: HashMap<String, Vec<usize>> = HashMap::new();
        for (si, &ti) in sig.iter().enumerate() {
            if tokens[ti].kind == TokenKind::Ident {
                occ.entry(tokens[ti].text.clone()).or_default().push(si);
            }
        }

        let mut has_sig = vec![false; max_line + 2];
        let mut has_nonattr_sig = vec![false; max_line + 2];
        let mut comment: Vec<Option<String>> = vec![None; max_line + 2];
        for (si, &ti) in sig.iter().enumerate() {
            let t = &tokens[ti];
            for l in t.line..=t.end_line() {
                has_sig[l as usize] = true;
                if !attr[si] {
                    has_nonattr_sig[l as usize] = true;
                }
            }
        }
        for t in &tokens {
            if t.kind.is_significant() {
                continue;
            }
            for (off, segment) in t.text.split('\n').enumerate() {
                let slot = &mut comment[t.line as usize + off];
                match slot {
                    Some(existing) => {
                        existing.push(' ');
                        existing.push_str(segment);
                    }
                    None => *slot = Some(segment.to_string()),
                }
            }
        }

        let test_regions = find_test_regions(&tokens, &sig);
        let mut a = Analysis {
            tokens,
            sig,
            attr,
            occ,
            has_sig,
            has_nonattr_sig,
            comment,
            test_regions,
            pragmas: Vec::new(),
            pragma_errors: Vec::new(),
        };
        a.collect_pragmas();
        a
    }

    pub(crate) fn tok(&self, si: usize) -> &Token {
        &self.tokens[self.sig[si]]
    }

    pub(crate) fn sig_get(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).map(|&ti| &self.tokens[ti])
    }

    pub(crate) fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the significant token at `si` lies inside an attribute.
    pub(crate) fn in_attr(&self, si: usize) -> bool {
        self.attr.get(si).copied().unwrap_or(false)
    }

    /// Sig positions of every identifier token spelled `ident`, in
    /// stream order (empty when the file never mentions it).
    pub(crate) fn occurrences(&self, ident: &str) -> &[usize] {
        self.occ.get(ident).map(Vec::as_slice).unwrap_or(&[])
    }

    fn has_sig_line(&self, line: u32) -> bool {
        self.has_sig.get(line as usize).copied().unwrap_or(false)
    }

    fn attr_only_line(&self, line: u32) -> bool {
        self.has_sig_line(line)
            && !self
                .has_nonattr_sig
                .get(line as usize)
                .copied()
                .unwrap_or(false)
    }

    fn comment_on(&self, line: u32) -> Option<&str> {
        self.comment.get(line as usize).and_then(|c| c.as_deref())
    }

    fn marker_on(&self, line: u32, marker: &str) -> bool {
        self.comment_on(line).is_some_and(|c| c.contains(marker))
    }

    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether a site on `line` has an adjacent justification comment
    /// containing `marker` (`SAFETY:` for unsafe sites, `ORDERING:`
    /// for atomics): trailing on the same line, or in the contiguous
    /// comment block directly above (attribute-only lines may
    /// intervene; a blank line breaks adjacency).
    pub(crate) fn marker_documented(&self, line: u32, marker: &str) -> bool {
        if self.marker_on(line, marker) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if self.has_sig_line(l) {
                if self.attr_only_line(l) {
                    l -= 1;
                    continue;
                }
                return false;
            }
            if self.comment_on(l).is_none() {
                return false;
            }
            if self.marker_on(l, marker) {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// The text of the `marker` comment adjacent to `line`, cleaned
    /// and truncated for the audit tables (None: undocumented).
    pub(crate) fn marker_excerpt(&self, line: u32, marker: &str) -> Option<String> {
        if self.marker_on(line, marker) {
            return Some(clean_excerpt(&[self.comment_on(line).unwrap()], marker));
        }
        // find the marker line by the same upward walk as the check
        let mut l = line.saturating_sub(1);
        let mut ls = 0u32;
        while l >= 1 {
            if self.has_sig_line(l) {
                if self.attr_only_line(l) {
                    l -= 1;
                    continue;
                }
                break;
            }
            if self.comment_on(l).is_none() {
                break;
            }
            if self.marker_on(l, marker) {
                ls = l;
                break;
            }
            l -= 1;
        }
        if ls == 0 {
            return None;
        }
        let mut parts = Vec::new();
        for cl in ls..line {
            match self.comment_on(cl) {
                Some(c) if !self.has_sig_line(cl) || cl == ls => parts.push(c),
                _ => break,
            }
        }
        Some(clean_excerpt(&parts, marker))
    }

    /// Every `unsafe` site in the file, as
    /// `(line, col, construct_kind, safety_excerpt)` — the audit
    /// inventory's raw material. `None` excerpt means undocumented.
    pub(crate) fn unsafe_sites(&self) -> Vec<(u32, u32, &'static str, Option<String>)> {
        let mut sites = Vec::new();
        for &si in self.occurrences("unsafe") {
            let t = self.tok(si);
            sites.push((
                t.line,
                t.col,
                unsafe_kind(self, si),
                self.marker_excerpt(t.line, "SAFETY:"),
            ));
        }
        sites
    }

    fn collect_pragmas(&mut self) {
        let comments: Vec<(u32, u32, String)> = self
            .tokens
            .iter()
            .filter(|t| !t.kind.is_significant())
            .map(|t| (t.line, t.end_line(), t.text.clone()))
            .collect();
        for (line, end_line, text) in comments {
            let Some(pos) = text.find(PRAGMA_MARKER) else {
                continue;
            };
            let rest = text[pos + PRAGMA_MARKER.len()..].trim_start();
            match parse_pragma_body(rest) {
                Ok(rules) => {
                    let target = if self.has_sig_line(line) {
                        line
                    } else {
                        let mut t = end_line + 1;
                        while (t as usize) < self.has_sig.len() && !self.has_sig_line(t) {
                            t += 1;
                        }
                        if self.has_sig_line(t) {
                            t
                        } else {
                            0
                        }
                    };
                    self.pragmas.push(Pragma {
                        rules,
                        target,
                        line,
                    });
                }
                Err(msg) => self.pragma_errors.push((line, msg)),
            }
        }
    }
}

/// Parses `allow(rule[, rule…]): justification`. The justification is
/// mandatory: an allow without a recorded reason is a lint error.
fn parse_pragma_body(body: &str) -> Result<Vec<Rule>, String> {
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>): <justification>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(`".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match Rule::from_name(name) {
            Some(r) => rules.push(r),
            None => return Err(format!("unknown rule {name:?}")),
        }
    }
    if rules.is_empty() {
        return Err("empty rule list".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let justification = after
        .strip_prefix(':')
        .map(|j| j.trim_end_matches("*/").trim())
        .unwrap_or("");
    if justification.is_empty() {
        return Err("missing justification (`allow(<rule>): <why>`)".to_string());
    }
    Ok(rules)
}

/// Marks which significant tokens belong to attributes (`#[…]` and
/// `#![…]`), by bracket matching from each `#`.
fn attribute_spans(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut attr = vec![false; sig.len()];
    let text = |si: usize| tokens[sig[si]].text.as_str();
    let mut i = 0;
    while i < sig.len() {
        if text(i) == "#" {
            let mut j = i + 1;
            if j < sig.len() && text(j) == "!" {
                j += 1;
            }
            if j < sig.len() && text(j) == "[" {
                let mut depth = 0usize;
                let mut k = j;
                while k < sig.len() {
                    match text(k) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for f in attr.iter_mut().take(k.min(sig.len() - 1) + 1).skip(i) {
                    *f = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    attr
}

/// Finds the line ranges of `#[cfg(test)]` items by scanning for the
/// attribute and brace-matching the item that follows.
fn find_test_regions(tokens: &[Token], sig: &[usize]) -> Vec<(u32, u32)> {
    let text = |si: usize| tokens[sig[si]].text.as_str();
    let line = |si: usize| tokens[sig[si]].line;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if text(i) != "#" || i + 1 >= sig.len() || text(i + 1) != "[" {
            i += 1;
            continue;
        }
        // find the attribute's closing bracket and look for cfg…test
        let mut depth = 0usize;
        let mut close = i + 1;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while close < sig.len() {
            match text(close) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                _ => {}
            }
            close += 1;
        }
        if !(saw_cfg && saw_test) || close >= sig.len() {
            i = close.max(i + 1);
            continue;
        }
        // skip any further attributes on the same item
        let mut j = close + 1;
        while j + 1 < sig.len() && text(j) == "#" && text(j + 1) == "[" {
            let mut d = 0usize;
            while j < sig.len() {
                match text(j) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        // the item body: brace-match from its first `{`, or end at `;`
        let mut k = j;
        while k < sig.len() && text(k) != "{" && text(k) != ";" {
            k += 1;
        }
        let end = if k < sig.len() && text(k) == "{" {
            let mut d = 0usize;
            let mut m = k;
            while m < sig.len() {
                match text(m) {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            m.min(sig.len() - 1)
        } else {
            k.min(sig.len() - 1)
        };
        regions.push((line(i), tokens[sig[end]].end_line()));
        i = close + 1;
    }
    regions
}

fn clean_excerpt(parts: &[&str], marker: &str) -> String {
    let mut words = Vec::new();
    for part in parts {
        for w in part.split_whitespace() {
            let w = w
                .trim_start_matches("///")
                .trim_start_matches("//!")
                .trim_start_matches("//")
                .trim_start_matches("/*")
                .trim_end_matches("*/");
            if !w.is_empty() {
                words.push(w);
            }
        }
    }
    let joined = words.join(" ");
    let after = match joined.find(marker) {
        Some(p) => joined[p + marker.len()..].trim(),
        None => joined.as_str(),
    };
    let mut out: String = after.chars().take(96).collect();
    if after.chars().count() > 96 {
        out.push('…');
    }
    out
}

/// Runs every per-file rule in scope for `rel` over one analyzed file,
/// appending findings to `out`. The cross-file rules (SL011–SL012) are
/// not run here — they need the whole workspace and live in
/// [`crate::cross::lint_workspace`]. Pragmas are *not* applied here
/// either, so cross-file diagnostics landing in this file get the same
/// suppression pass (see [`apply_pragmas`]).
pub(crate) fn run_per_file_rules(
    rel: &str,
    a: &Analysis,
    ix: &FileIndex,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    for rule in RULES {
        if !cfg.scope(rule).matches(rel) {
            continue;
        }
        match rule {
            Rule::UndocumentedUnsafe => rule_undocumented_unsafe(rule, rel, a, out),
            Rule::BarePrint => rule_bare_print(rule, rel, a, out),
            Rule::StrayEnvRead => rule_stray_env_read(rule, rel, a, out),
            Rule::HashmapIterInNumeric => rule_hashmap(rule, rel, a, out),
            Rule::PanickingApiInHotPath => rule_panicking(rule, rel, a, out),
            Rule::NanUnwrapCompare => rule_nan_unwrap_compare(rule, rel, a, out),
            Rule::UndocumentedAtomicOrdering => {
                rule_atomic_ordering(rule, rel, a, ix, &cfg.ordering_gates, out)
            }
            // workspace-level rules, handled by lint_workspace
            Rule::KnobRegistryDrift | Rule::MetricNameDrift => {}
        }
    }
}

/// Applies `rel`'s allow pragmas to the diagnostics that landed in
/// `rel` (entries for other paths pass through untouched), then
/// reports pragma hygiene: malformed pragmas (SL006) and pragmas that
/// suppressed nothing (SL007).
pub(crate) fn apply_pragmas(rel: &str, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    let mut used = vec![false; a.pragmas.len()];
    diags.retain(|d| {
        if d.path != rel {
            return true;
        }
        for (k, p) in a.pragmas.iter().enumerate() {
            if p.target == d.line && p.rules.iter().any(|r| r.name() == d.rule) {
                used[k] = true;
                return false;
            }
        }
        true
    });
    for (line, msg) in &a.pragma_errors {
        diags.push(Diagnostic {
            code: CODE_MALFORMED_PRAGMA,
            rule: "malformed-pragma",
            path: rel.to_string(),
            line: *line,
            col: 1,
            message: format!("malformed allow pragma: {msg}"),
        });
    }
    for (k, p) in a.pragmas.iter().enumerate() {
        if !used[k] {
            diags.push(Diagnostic {
                code: CODE_UNUSED_PRAGMA,
                rule: "unused-pragma",
                path: rel.to_string(),
                line: p.line,
                col: 1,
                message: "allow pragma suppressed no diagnostic; remove it".to_string(),
            });
        }
    }
}

fn push(out: &mut Vec<Diagnostic>, rule: Rule, rel: &str, t: &Token, message: String) {
    out.push(Diagnostic {
        code: rule.code(),
        rule: rule.name(),
        path: rel.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// Classifies what an `unsafe` token introduces, for messages and the
/// audit table.
fn unsafe_kind(a: &Analysis, si: usize) -> &'static str {
    if si + 1 >= a.sig_len() {
        return "unsafe";
    }
    match a.tok(si + 1).text.as_str() {
        "impl" => "unsafe impl",
        "fn" => "unsafe fn",
        "trait" => "unsafe trait",
        "{" => "unsafe block",
        _ => "unsafe",
    }
}

fn rule_undocumented_unsafe(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for &si in a.occurrences("unsafe") {
        let t = a.tok(si);
        if !a.marker_documented(t.line, "SAFETY:") {
            let kind = unsafe_kind(a, si);
            push(
                out,
                rule,
                rel,
                t,
                format!("{kind} without an adjacent `// SAFETY:` comment stating its argument"),
            );
        }
    }
}

const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

fn rule_bare_print(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for name in PRINT_MACROS {
        for &si in a.occurrences(name) {
            let t = a.tok(si);
            if a.sig_get(si + 1).is_some_and(|n| n.text == "!") && !a.in_test(t.line) {
                push(
                    out,
                    rule,
                    rel,
                    t,
                    format!(
                        "bare `{}!` in a library crate — route diagnostics through socmix-obs \
                         events or render into a caller-provided buffer",
                        t.text
                    ),
                );
            }
        }
    }
}

const ENV_FNS: [&str; 6] = ["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

fn rule_stray_env_read(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for &si in a.occurrences("env") {
        let t = a.tok(si);
        let path = (
            a.sig_get(si + 1).map(|x| x.text.as_str()),
            a.sig_get(si + 2).map(|x| x.text.as_str()),
        );
        if path == (Some(":"), Some(":"))
            && a.sig_get(si + 3)
                .is_some_and(|f| f.kind == TokenKind::Ident && ENV_FNS.contains(&f.text.as_str()))
            && !a.in_test(t.line)
        {
            push(
                out,
                rule,
                rel,
                t,
                format!(
                    "`std::env::{}` outside a designated knob module — route new knobs \
                     through the warn-once parsers so they stay validated and \
                     manifest-recorded",
                    a.tok(si + 3).text
                ),
            );
        }
    }
}

fn rule_hashmap(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for name in ["HashMap", "HashSet"] {
        for &si in a.occurrences(name) {
            let t = a.tok(si);
            if !a.in_test(t.line) {
                push(
                    out,
                    rule,
                    rel,
                    t,
                    format!(
                        "`{}` in a numeric crate — unordered iteration reorders float \
                         accumulation; use Vec/BTreeMap, or add an allow pragma if the \
                         container is provably never iterated",
                        t.text
                    ),
                );
            }
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn rule_panicking(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for name in PANIC_MACROS {
        for &si in a.occurrences(name) {
            let t = a.tok(si);
            if a.sig_get(si + 1).is_some_and(|n| n.text == "!") && !a.in_test(t.line) {
                push(
                    out,
                    rule,
                    rel,
                    t,
                    format!(
                        "`{}!` in the worker/dispatch path — a panic here must go through \
                         the catch_unwind poisoning protocol",
                        t.text
                    ),
                );
            }
        }
    }
    for name in ["unwrap", "expect"] {
        for &si in a.occurrences(name) {
            let t = a.tok(si);
            if a.in_test(t.line)
                || si == 0
                || a.sig_get(si + 1).is_none_or(|n| n.text != "(")
                || !matches!(a.tok(si - 1).text.as_str(), "." | ":")
            {
                continue;
            }
            if name == "unwrap" && is_poison_propagation(a, si) {
                continue;
            }
            push(
                out,
                rule,
                rel,
                t,
                format!(
                    "`.{}()` in the worker/dispatch path — panics here must follow the \
                     catch_unwind poisoning protocol; justify with an allow pragma if \
                     this is an invariant assertion",
                    t.text
                ),
            );
        }
    }
}

fn rule_nan_unwrap_compare(rule: Rule, rel: &str, a: &Analysis, out: &mut Vec<Diagnostic>) {
    for &si in a.occurrences("partial_cmp") {
        let t = a.tok(si);
        if a.sig_get(si + 1).is_none_or(|n| n.text != "(") || a.in_test(t.line) {
            continue;
        }
        // skip the balanced argument list starting at the `(`
        let mut depth = 0usize;
        let mut k = si + 1;
        while k < a.sig_len() {
            match a.tok(k).text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        // fire only when the call's result is immediately unwrapped —
        // matched/defaulted partial_cmp handles NaN and stays legal
        if k + 3 < a.sig_len()
            && a.tok(k + 1).text == "."
            && a.tok(k + 2).text == "unwrap"
            && a.tok(k + 3).text == "("
        {
            push(
                out,
                rule,
                rel,
                t,
                "`.partial_cmp(…).unwrap()` panics on the first NaN — use \
                 `f64::total_cmp`, which orders non-NaN values identically"
                    .to_string(),
            );
        }
    }
}

/// Whether an `unwrap` at `si` is the sanctioned poison-propagation
/// idiom: `….lock(…).unwrap()` / `….wait(…).unwrap()`. Those unwraps
/// *are* the protocol — a poisoned runtime mutex means an invariant
/// already broke elsewhere, and propagating the panic is intended.
fn is_poison_propagation(a: &Analysis, si: usize) -> bool {
    if si < 2 || a.tok(si - 1).text != "." || a.tok(si - 2).text != ")" {
        return false;
    }
    // match the call's parentheses backwards from the `)`
    let mut depth = 0usize;
    let mut k = si - 2;
    loop {
        match a.tok(k).text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    k >= 1 && matches!(a.tok(k - 1).text.as_str(), "lock" | "wait")
}

/// Whether an ordering site owes an `// ORDERING:` justification under
/// the configured gate list — SL009's firing condition, shared with
/// the ordering-audit renderer so the committed inventory and the rule
/// agree on the site set. Non-`Relaxed` always does; `Relaxed` only
/// when the enclosing statement touches a configured gate/flag, where
/// "relaxed is fine" is itself a claim that needs an argument.
pub(crate) fn ordering_needs_doc(site: &OrderingSite, gates: &[String]) -> bool {
    if site.flavor != "Relaxed" {
        return true;
    }
    site.stmt_idents
        .iter()
        .any(|i| gates.iter().any(|g| g == i))
}

fn rule_atomic_ordering(
    rule: Rule,
    rel: &str,
    a: &Analysis,
    ix: &FileIndex,
    gates: &[String],
    out: &mut Vec<Diagnostic>,
) {
    // one diagnostic per line: compare_exchange names two orderings in
    // one call, and a single ORDERING: comment covers the pair
    let mut last_line = 0u32;
    for site in &ix.orderings {
        if site.in_test || !ordering_needs_doc(site, gates) {
            continue;
        }
        if a.marker_documented(site.line, "ORDERING:") {
            continue;
        }
        if site.line == last_line {
            continue;
        }
        last_line = site.line;
        let what = if site.flavor == "Relaxed" {
            let gate = site
                .stmt_idents
                .iter()
                .find(|i| gates.iter().any(|g| &g == i))
                .map(String::as_str)
                .unwrap_or("gate");
            format!("`Ordering::Relaxed` on synchronization gate `{gate}`")
        } else {
            format!("`Ordering::{}`", site.flavor)
        };
        out.push(Diagnostic {
            code: rule.code(),
            rule: rule.name(),
            path: rel.to_string(),
            line: site.line,
            col: site.col,
            message: format!(
                "{what} without an adjacent `// ORDERING:` comment justifying the \
                 memory ordering"
            ),
        });
    }
}
