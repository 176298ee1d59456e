//! Pass 1 of the workspace analyzer: a lightweight per-file item
//! index built from the token stream.
//!
//! The cross-file rules (SL009, SL011, SL012) cannot work from one
//! file's tokens alone — a knob string is read in a knob module and
//! echoed in the manifest recorder, a metric is registered in one
//! crate and referenced in another. This module reduces each file to
//! the facts those rules consume:
//!
//! - **string literals** with their unquoted value — knob names and
//!   metric names travel as strings;
//! - **atomic-ordering sites** (`Ordering::Relaxed` … `SeqCst`) with
//!   the identifiers of their enclosing statement — SL009's input,
//!   disambiguated from `cmp::Ordering` by flavor name;
//! - **metric registrations** (`Counter::new("…")` and friends) — the
//!   canonical name set for SL012.
//!
//! Everything is derived from [`crate::lexer::lex`] output, so text
//! inside strings, comments, or raw strings can never masquerade as an
//! item: a raw string containing `Counter::new("fake.hits")` is one
//! `Str` token and indexes as a string literal, not a registration.
//! Tokens inside attributes (`#[…]`) are excluded from ordering
//! indexing, and attribute string literals (doc text, cfg values) are
//! flagged so the knob/metric rules can skip them.

use crate::lexer::TokenKind;
use crate::rules::Analysis;

/// A string literal and its unquoted contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// The literal's contents (between the quotes, escapes untouched —
    /// the knob/metric rules match plain identifiers, which never
    /// contain escapes).
    pub value: String,
    pub line: u32,
    pub col: u32,
    pub in_test: bool,
    /// Inside an attribute (`#[doc = "…"]`, `#[cfg(feature = "…")]`):
    /// documentation or configuration, not runtime data.
    pub in_attr: bool,
}

/// The atomic-ordering flavors. `std::cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) are deliberately absent: only these five
/// names make an `Ordering::` path an atomics site.
pub const ATOMIC_FLAVORS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `Ordering::<flavor>` occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingSite {
    /// `Relaxed` | `Acquire` | `Release` | `AcqRel` | `SeqCst`.
    pub flavor: &'static str,
    pub line: u32,
    pub col: u32,
    pub in_test: bool,
    /// Identifiers of the enclosing statement (walking back from the
    /// site to the nearest `;`/`{`/`}`), used to decide whether a
    /// `Relaxed` touches a configured gate/flag.
    pub stmt_idents: Vec<String>,
}

/// A metric registration: `Counter::new("par.jobs.dispatched")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricReg {
    /// `Counter` | `Gauge` | `Histogram`.
    pub kind: &'static str,
    pub name: String,
    pub line: u32,
    pub col: u32,
    pub in_test: bool,
}

/// Everything pass 2 needs to know about one file.
#[derive(Debug, Default)]
pub struct FileIndex {
    pub strings: Vec<StrLit>,
    pub orderings: Vec<OrderingSite>,
    pub metrics: Vec<MetricReg>,
}

/// How far back (in significant tokens) an ordering site's
/// statement-identifier scan walks before giving up.
const STMT_SCAN_LIMIT: usize = 24;

/// Strips the quotes (and any raw-string fence) off a string literal's
/// source text.
fn unquote(text: &str) -> String {
    let open = text.find('"');
    let close = text.rfind('"');
    match (open, close) {
        (Some(o), Some(c)) if c > o => text[o + 1..c].to_string(),
        // unterminated literal at EOF: take what's there
        (Some(o), _) => text[o + 1..].to_string(),
        _ => String::new(),
    }
}

impl FileIndex {
    /// Builds the index from a completed per-file [`Analysis`].
    pub(crate) fn build(a: &Analysis) -> FileIndex {
        let mut ix = FileIndex::default();
        index_strings(a, &mut ix);
        index_orderings(a, &mut ix);
        index_metrics(a, &mut ix);
        ix
    }
}

fn index_strings(a: &Analysis, ix: &mut FileIndex) {
    for si in 0..a.sig_len() {
        let t = a.tok(si);
        if t.kind == TokenKind::Str {
            ix.strings.push(StrLit {
                value: unquote(&t.text),
                line: t.line,
                col: t.col,
                in_test: a.in_test(t.line),
                in_attr: a.in_attr(si),
            });
        }
    }
}

fn index_orderings(a: &Analysis, ix: &mut FileIndex) {
    for &si in a.occurrences("Ordering") {
        if a.in_attr(si) {
            continue;
        }
        let path = (
            a.sig_get(si + 1).map(|t| t.text.as_str()),
            a.sig_get(si + 2).map(|t| t.text.as_str()),
        );
        if path != (Some(":"), Some(":")) {
            continue;
        }
        let Some(flavor_tok) = a.sig_get(si + 3) else {
            continue;
        };
        let Some(flavor) = ATOMIC_FLAVORS
            .iter()
            .find(|&&f| f == flavor_tok.text)
            .copied()
        else {
            continue; // cmp::Ordering::{Less,Equal,Greater} and friends
        };
        let mut stmt_idents = Vec::new();
        let mut k = si;
        for _ in 0..STMT_SCAN_LIMIT {
            if k == 0 {
                break;
            }
            k -= 1;
            let t = a.tok(k);
            match t.text.as_str() {
                ";" | "{" | "}" => break,
                _ if t.kind == TokenKind::Ident => stmt_idents.push(t.text.clone()),
                _ => {}
            }
        }
        let t = a.tok(si);
        ix.orderings.push(OrderingSite {
            flavor,
            line: t.line,
            col: t.col,
            in_test: a.in_test(t.line),
            stmt_idents,
        });
    }
}

const METRIC_TYPES: [&str; 3] = ["Counter", "Gauge", "Histogram"];

fn index_metrics(a: &Analysis, ix: &mut FileIndex) {
    for kind in METRIC_TYPES {
        for &si in a.occurrences(kind) {
            let shape = (
                a.sig_get(si + 1).map(|t| t.text.as_str()),
                a.sig_get(si + 2).map(|t| t.text.as_str()),
                a.sig_get(si + 3).map(|t| t.text.as_str()),
                a.sig_get(si + 4).map(|t| t.text.as_str()),
            );
            if shape != (Some(":"), Some(":"), Some("new"), Some("(")) {
                continue;
            }
            let Some(name_tok) = a.sig_get(si + 5) else {
                continue;
            };
            if name_tok.kind != TokenKind::Str {
                continue;
            }
            let t = a.tok(si);
            ix.metrics.push(MetricReg {
                kind,
                name: unquote(&name_tok.text),
                line: t.line,
                col: t.col,
                in_test: a.in_test(t.line),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        FileIndex::build(&Analysis::new(src))
    }

    #[test]
    fn raw_strings_do_not_index_as_items() {
        let ix = index(
            "fn f() -> &'static str {\n\
             r#\"static C: Counter = Counter::new(\"fake.hits\");\"#\n\
             }\n",
        );
        assert!(ix.metrics.is_empty(), "{:?}", ix.metrics);
        assert_eq!(ix.strings.len(), 1);
        assert!(ix.strings[0].value.contains("fake.hits"));
    }

    #[test]
    fn nested_modules_and_cfg_gated_items_index() {
        let src = "\
mod outer {
    pub const IN_OUTER: &str = \"outer\";
    mod inner {
        #[cfg(unix)]
        pub const IN_INNER: &str = \"inner\";
    }
}
#[cfg(test)]
mod tests {
    const IN_TEST: &str = \"test\";
}
";
        let ix = index(src);
        let values: Vec<_> = ix.strings.iter().map(|s| s.value.as_str()).collect();
        assert_eq!(values, vec!["outer", "inner", "test"]);
        assert!(!ix.strings[0].in_test);
        assert!(!ix.strings[1].in_test, "cfg(unix) is not cfg(test)");
        assert!(ix.strings[2].in_test);
    }

    #[test]
    fn atomic_orderings_index_with_statement_idents() {
        let src = "\
fn f() {
    GATE.load(Ordering::Relaxed);
    FLAG.store(true, Ordering::Release);
    let c = std::cmp::Ordering::Less;
}
";
        let ix = index(src);
        assert_eq!(ix.orderings.len(), 2, "{:?}", ix.orderings);
        assert_eq!(ix.orderings[0].flavor, "Relaxed");
        assert!(ix.orderings[0].stmt_idents.contains(&"GATE".to_string()));
        assert_eq!(ix.orderings[1].flavor, "Release");
        assert!(ix.orderings[1].stmt_idents.contains(&"FLAG".to_string()));
    }

    #[test]
    fn metric_registrations_index() {
        let src = "\
static A: Counter = Counter::new(\"app.hits\");
static H: socmix_obs::Histogram = socmix_obs::Histogram::new(\"app.lat_ns\");
#[cfg(test)]
mod tests {
    static T: Counter = Counter::new(\"test.only\");
}
";
        let ix = index(src);
        assert_eq!(ix.metrics.len(), 3);
        assert_eq!(ix.metrics[0].name, "app.hits");
        assert_eq!(ix.metrics[0].kind, "Counter");
        assert!(!ix.metrics[0].in_test);
        assert_eq!(ix.metrics[2].name, "app.lat_ns");
        assert_eq!(ix.metrics[2].kind, "Histogram");
        assert!(ix.metrics[1].in_test);
    }

    #[test]
    fn attribute_strings_are_flagged() {
        let src = "#[doc = \"SOCMIX_DOCONLY\"]\nfn f() { let s = \"SOCMIX_REAL\"; }\n";
        let ix = index(src);
        assert_eq!(ix.strings.len(), 2);
        assert!(ix.strings[0].in_attr);
        assert!(!ix.strings[1].in_attr);
    }
}
