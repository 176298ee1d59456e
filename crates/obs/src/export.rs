//! Chrome trace-event export and exclusive-time profiles.
//!
//! Turns drained [`crate::trace`] events into the Chrome trace-event
//! JSON format (the `{"traceEvents": [...]}` document loadable in
//! `chrome://tracing` and <https://ui.perfetto.dev>): paired
//! begin/end events become complete (`"ph": "X"`) slices with
//! microsecond `ts`/`dur`, unpaired begins stay as `"B"` events, and
//! recorder thread names ship as `"M"` metadata rows.
//!
//! [`exclusive_profile`] post-processes the same slices into the
//! manifest's per-stage table: for every span, exclusive time is its
//! duration minus its direct children's, attributed to the top-level
//! (stage) span it sits under.

use crate::json::Value;
use crate::trace::{TraceEvent, TracePhase};
use std::collections::BTreeMap;

/// One span being assembled from a begin (and, if seen, its end).
struct Slice {
    name: String,
    span: u64,
    parent: u64,
    tid: u64,
    ts_ns: u64,
    dur_ns: Option<u64>,
}

/// Renders drained events as Chrome trace-event objects for one
/// process. `thread_labels` (from [`crate::trace::thread_labels`])
/// adds `thread_name` metadata rows so Perfetto shows real names.
pub fn chrome_events(
    events: &[TraceEvent],
    pid: u64,
    thread_labels: &[(u64, String)],
) -> Vec<Value> {
    let mut out: Vec<Value> = thread_labels
        .iter()
        .map(|(tid, name)| {
            Value::Obj(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Int(pid as i64)),
                ("tid".into(), Value::Int(*tid as i64)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::Str(name.clone()))]),
                ),
            ])
        })
        .collect();
    // Pair begin/end by span id. `open` holds indexes of slices still
    // awaiting their end; its size is bounded by live nesting depth
    // across threads, so the linear scan stays cheap.
    let mut slices: Vec<Slice> = Vec::new();
    let mut open: Vec<(u64, usize)> = Vec::new();
    for ev in events {
        match ev.phase {
            TracePhase::Begin => {
                open.push((ev.span, slices.len()));
                slices.push(Slice {
                    name: ev.name.clone().into_owned(),
                    span: ev.span,
                    parent: ev.parent,
                    tid: ev.tid,
                    ts_ns: ev.ts_ns,
                    dur_ns: None,
                });
            }
            TracePhase::End => {
                if let Some(pos) = open.iter().rposition(|&(s, _)| s == ev.span) {
                    let (_, i) = open.swap_remove(pos);
                    if let Some(slice) = slices.get_mut(i) {
                        slice.dur_ns = Some(ev.ts_ns.saturating_sub(slice.ts_ns));
                    }
                }
                // An end without a begin (begin dropped by ring
                // overflow) has no slice to anchor; skip it.
            }
        }
    }
    slices.sort_by_key(|a| (a.ts_ns, a.span));
    for s in slices {
        let mut fields = vec![
            ("name".into(), Value::Str(s.name)),
            ("cat".into(), Value::Str("socmix".into())),
            (
                "ph".into(),
                Value::Str(if s.dur_ns.is_some() { "X" } else { "B" }.into()),
            ),
            ("ts".into(), Value::Float(s.ts_ns as f64 / 1000.0)),
        ];
        if let Some(dur) = s.dur_ns {
            fields.push(("dur".into(), Value::Float(dur as f64 / 1000.0)));
        }
        fields.push(("pid".into(), Value::Int(pid as i64)));
        fields.push(("tid".into(), Value::Int(s.tid as i64)));
        fields.push((
            "args".into(),
            Value::Obj(vec![
                ("span".into(), Value::Int(s.span as i64)),
                ("parent".into(), Value::Int(s.parent as i64)),
            ]),
        ));
        out.push(Value::Obj(fields));
    }
    out
}

/// Wraps an event array into the Chrome trace-event document.
pub fn chrome_trace_document(events: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

/// Per-stage exclusive-time profile over chrome-format events.
///
/// A span's **exclusive** time is its duration minus the sum of its
/// direct children's durations — the time it spent itself rather than
/// delegating. Each span is attributed to the top-level span at the
/// root of its parent chain (in a `repro --trace` run those are the
/// pipeline stage spans), and the result lists the `top_k` heaviest
/// span names per stage:
///
/// `{"<stage>": [{"name", "exclusive_us", "count"}, ...], ...}`
pub fn exclusive_profile(events: &[Value], top_k: usize) -> Value {
    // span id -> (parent, name, dur_us)
    let mut spans: BTreeMap<i64, (i64, String, f64)> = BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let (Some(args), Some(name), Some(dur)) = (
            ev.get("args"),
            ev.get("name").and_then(Value::as_str),
            ev.get("dur").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let (Some(span), Some(parent)) = (
            args.get("span").and_then(Value::as_i64),
            args.get("parent").and_then(Value::as_i64),
        ) else {
            continue;
        };
        spans.insert(span, (parent, name.to_string(), dur));
    }
    let mut child_sum: BTreeMap<i64, f64> = BTreeMap::new();
    for (parent, _, dur) in spans.values() {
        *child_sum.entry(*parent).or_insert(0.0) += dur;
    }
    // (stage name, span name) -> (exclusive_us, count)
    let mut rows: BTreeMap<(String, String), (f64, u64)> = BTreeMap::new();
    for (span, (_, name, dur)) in &spans {
        let exclusive = (dur - child_sum.get(span).copied().unwrap_or(0.0)).max(0.0);
        // Ascend to the top-level ancestor; the depth cap guards
        // against a cyclic parent chain from corrupt input.
        let mut root = *span;
        for _ in 0..64 {
            match spans.get(&root) {
                Some((p, _, _)) if spans.contains_key(p) => root = *p,
                _ => break,
            }
        }
        let stage = spans
            .get(&root)
            .map(|(_, n, _)| n.clone())
            .unwrap_or_else(|| name.clone());
        let row = rows.entry((stage, name.clone())).or_insert((0.0, 0));
        row.0 += exclusive;
        row.1 += 1;
    }
    // Regroup per stage and keep the top_k heaviest names.
    let mut stages: BTreeMap<String, Vec<(String, f64, u64)>> = BTreeMap::new();
    for ((stage, name), (excl, count)) in rows {
        stages.entry(stage).or_default().push((name, excl, count));
    }
    Value::Obj(
        stages
            .into_iter()
            .map(|(stage, mut entries)| {
                entries.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                entries.truncate(top_k);
                let arr = entries
                    .into_iter()
                    .map(|(name, excl, count)| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(name)),
                            ("exclusive_us".into(), Value::Float(excl)),
                            ("count".into(), Value::Int(count as i64)),
                        ])
                    })
                    .collect();
                (stage, Value::Arr(arr))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(phase: TracePhase, name: &'static str, span: u64, parent: u64, ts: u64) -> TraceEvent {
        TraceEvent {
            phase,
            name: Cow::Borrowed(name),
            span,
            parent,
            ts_ns: ts,
            tid: 1,
        }
    }

    #[test]
    fn paired_events_become_complete_slices() {
        let events = vec![
            ev(TracePhase::Begin, "stage: fig3", 10, 0, 1_000),
            ev(TracePhase::Begin, "dispatch", 11, 10, 2_000),
            ev(TracePhase::End, "", 11, 10, 5_000),
            ev(TracePhase::End, "", 10, 0, 9_000),
        ];
        let out = chrome_events(&events, 42, &[(1, "main".into())]);
        // 1 metadata row + 2 slices
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("ph").and_then(Value::as_str), Some("M"));
        let stage = &out[1];
        assert_eq!(stage.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(stage.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(stage.get("dur").and_then(Value::as_f64), Some(8.0));
        assert_eq!(stage.get("pid").and_then(Value::as_i64), Some(42));
        let child = &out[2];
        assert_eq!(child.get("dur").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_i64),
            Some(10)
        );
    }

    #[test]
    fn unpaired_begin_survives_as_b_event() {
        let events = vec![ev(TracePhase::Begin, "open-ended", 7, 0, 500)];
        let out = chrome_events(&events, 1, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("ph").and_then(Value::as_str), Some("B"));
        assert!(out[0].get("dur").is_none());
    }

    #[test]
    fn orphan_end_is_skipped() {
        let events = vec![ev(TracePhase::End, "", 9, 0, 500)];
        assert!(chrome_events(&events, 1, &[]).is_empty());
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let events = vec![
            ev(TracePhase::Begin, "s", 1, 0, 0),
            ev(TracePhase::End, "", 1, 0, 10),
        ];
        let doc = chrome_trace_document(chrome_events(&events, 5, &[]));
        let text = doc.to_pretty();
        let back = crate::parse(&text).expect("valid JSON");
        let arr = back.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn exclusive_profile_subtracts_children_and_groups_by_stage() {
        let events = vec![
            // stage A: 100us total, child eats 60us -> stage exclusive 40us
            ev(TracePhase::Begin, "stage: A", 1, 0, 0),
            ev(TracePhase::Begin, "matvec", 2, 1, 10_000),
            ev(TracePhase::End, "", 2, 1, 70_000),
            ev(TracePhase::End, "", 1, 0, 100_000),
            // stage B: flat 20us
            ev(TracePhase::Begin, "stage: B", 3, 0, 100_000),
            ev(TracePhase::End, "", 3, 0, 120_000),
        ];
        let chrome = chrome_events(&events, 1, &[]);
        let profile = exclusive_profile(&chrome, 5);
        let a = profile.get("stage: A").and_then(Value::as_arr).unwrap();
        assert_eq!(a.len(), 2);
        // heaviest first: matvec 60us, stage exclusive 40us
        assert_eq!(a[0].get("name").and_then(Value::as_str), Some("matvec"));
        assert_eq!(a[0].get("exclusive_us").and_then(Value::as_f64), Some(60.0));
        assert_eq!(a[1].get("exclusive_us").and_then(Value::as_f64), Some(40.0));
        let b = profile.get("stage: B").and_then(Value::as_arr).unwrap();
        assert_eq!(b[0].get("exclusive_us").and_then(Value::as_f64), Some(20.0));
    }

    #[test]
    fn exclusive_profile_top_k_truncates() {
        let mut events = Vec::new();
        events.push(ev(TracePhase::Begin, "stage", 1, 0, 0));
        for i in 0..8u64 {
            events.push(ev(
                TracePhase::Begin,
                ["a", "b", "c", "d", "e", "f", "g", "h"][i as usize],
                10 + i,
                1,
                100 * i,
            ));
            events.push(ev(TracePhase::End, "", 10 + i, 1, 100 * i + 50));
        }
        events.push(ev(TracePhase::End, "", 1, 0, 10_000));
        let chrome = chrome_events(&events, 1, &[]);
        let profile = exclusive_profile(&chrome, 3);
        assert_eq!(
            profile.get("stage").and_then(Value::as_arr).unwrap().len(),
            3
        );
    }
}
