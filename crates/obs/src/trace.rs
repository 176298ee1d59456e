//! Hierarchical trace-event recorder: begin/end span events in
//! per-thread ring buffers.
//!
//! Where histograms answer "how is this latency distributed", a trace
//! answers "where did *this* run's time go": every [`begin`]/[`end`]
//! pair is one span on a timeline, spans nest through a thread-local
//! stack (a span's parent is whatever span was open on the same thread
//! when it started), and [`crate::export`] turns the drained events
//! into Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! # Contracts
//!
//! - **Disabled cost is one relaxed load** ([`crate::trace_enabled`],
//!   which shares its atomic with the metrics gate). No clock reads,
//!   no thread-local touches, no locks while tracing is off.
//! - **Recording never panics.** The hot path uses poison-tolerant
//!   locking and tolerates thread-local teardown; a full ring drops
//!   the oldest event and counts it ([`dropped_events`]) instead of
//!   growing without bound.
//! - **Ids are process-unique.** A span id is `pid << 32 | seq`, so
//!   traces written by different processes never share an id.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread event-ring capacity. At ~64 bytes per event this bounds
/// a thread's buffer near 4 MiB; overflow drops the *oldest* events
/// (the tail of a run is usually what a trace is opened for).
pub const TRACE_RING_CAP: usize = 1 << 16;

/// Whether an event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    Begin,
    End,
}

/// One recorded begin/end event. Timestamps are nanoseconds since the
/// process trace epoch (first clock use).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub phase: TracePhase,
    /// Span name; `End` events carry an empty name (the begin names
    /// the pair).
    pub name: Cow<'static, str>,
    /// Process-unique span id (`pid << 32 | seq`).
    pub span: u64,
    /// Enclosing span id at record time (0 = root).
    pub parent: u64,
    pub ts_ns: u64,
    /// Recorder-assigned thread id (dense, process-local).
    pub tid: u64,
}

/// One thread's recording state: its span stack and event ring.
struct ThreadBuf {
    tid: u64,
    name: String,
    stack: Vec<u64>,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Span-id sequence (low 32 bits of every id minted by this process).
static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
/// Recorder thread-id sequence.
static TID_SEQ: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since this process's trace epoch (monotonic).
fn clock_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// All live thread buffers, so [`drain`] can collect across threads.
fn threads() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<ThreadBuf>> = {
        let tid = TID_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let buf = Arc::new(Mutex::new(ThreadBuf {
            tid,
            name,
            stack: Vec::new(),
            ring: VecDeque::new(),
            dropped: 0,
        }));
        threads()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buf));
        buf
    };
}

/// Runs `f` against this thread's buffer. During thread-local teardown
/// the slot is gone; the event is silently dropped rather than
/// panicking in a destructor.
fn with_local<F: FnOnce(&mut ThreadBuf)>(f: F) {
    let _ = LOCAL.try_with(|buf| {
        let mut b = buf.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut b);
    });
}

fn push_event(b: &mut ThreadBuf, ev: TraceEvent) {
    if b.ring.len() >= TRACE_RING_CAP {
        b.ring.pop_front();
        b.dropped += 1;
    }
    b.ring.push_back(ev);
}

fn next_span_id() -> u64 {
    let seq = SPAN_SEQ.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
    ((std::process::id() as u64) << 32) | seq
}

/// Opens a span: records a `Begin` event and pushes it on this
/// thread's stack. Returns the span id, or 0 (a no-op handle) when
/// tracing is off.
#[inline]
pub fn begin(name: impl Into<Cow<'static, str>>) -> u64 {
    if !crate::trace_enabled() {
        return 0;
    }
    begin_always(name.into())
}

/// The enabled-path body of [`begin`]; `Span::start` calls this
/// directly after its own (single) gate load.
pub(crate) fn begin_always(name: Cow<'static, str>) -> u64 {
    let span = next_span_id();
    let ts_ns = clock_ns();
    with_local(|b| {
        let parent = b.stack.last().copied().unwrap_or(0);
        b.stack.push(span);
        let tid = b.tid;
        push_event(
            b,
            TraceEvent {
                phase: TracePhase::Begin,
                name,
                span,
                parent,
                ts_ns,
                tid,
            },
        );
    });
    span
}

/// Closes a span opened by [`begin`] on the same thread. A 0 id is a
/// no-op, so disabled-path handles cost one branch here.
pub fn end(span: u64) {
    if span == 0 {
        return;
    }
    let ts_ns = clock_ns();
    with_local(|b| {
        // Unwind the stack down to and including this span: if a
        // parent closes before an abandoned child (early return,
        // leaked handle), the children are popped rather than left to
        // corrupt the parentage of later spans.
        while let Some(top) = b.stack.pop() {
            if top == span {
                break;
            }
        }
        let parent = b.stack.last().copied().unwrap_or(0);
        let tid = b.tid;
        push_event(
            b,
            TraceEvent {
                phase: TracePhase::End,
                name: Cow::Borrowed(""),
                span,
                parent,
                ts_ns,
                tid,
            },
        );
    });
}

/// RAII span handle: [`begin`] on construction, [`end`] on drop.
///
/// ```
/// socmix_obs::set_trace_enabled(true);
/// {
///     let _span = socmix_obs::TraceSpan::begin("stage: fig3");
///     // ... traced work ...
/// } // End event recorded here
/// let events = socmix_obs::trace::drain();
/// assert!(events.iter().any(|e| e.name == "stage: fig3"));
/// socmix_obs::set_trace_enabled(false);
/// ```
pub struct TraceSpan {
    span: u64,
}

impl TraceSpan {
    pub fn begin(name: impl Into<Cow<'static, str>>) -> TraceSpan {
        TraceSpan { span: begin(name) }
    }

    /// The underlying span id (0 while tracing is off).
    pub fn id(&self) -> u64 {
        self.span
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        end(std::mem::take(&mut self.span));
    }
}

/// Drains every thread's ring into one timestamp-sorted vector. Span
/// stacks are left intact, so draining mid-run keeps later events
/// correctly parented.
pub fn drain() -> Vec<TraceEvent> {
    let bufs: Vec<Arc<Mutex<ThreadBuf>>> =
        threads().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for buf in bufs {
        let mut b = buf.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(b.ring.drain(..));
    }
    out.sort_by_key(|a| (a.ts_ns, a.span));
    out
}

/// Events lost to ring overflow so far (cumulative, all threads).
pub fn dropped_events() -> u64 {
    let bufs: Vec<Arc<Mutex<ThreadBuf>>> =
        threads().lock().unwrap_or_else(|e| e.into_inner()).clone();
    bufs.iter()
        .map(|b| b.lock().unwrap_or_else(|e| e.into_inner()).dropped)
        .sum()
}

/// Recorder thread ids and their names, for exporter metadata rows.
pub fn thread_labels() -> Vec<(u64, String)> {
    let bufs: Vec<Arc<Mutex<ThreadBuf>>> =
        threads().lock().unwrap_or_else(|e| e.into_inner()).clone();
    bufs.iter()
        .map(|b| {
            let b = b.lock().unwrap_or_else(|e| e.into_inner());
            (b.tid, b.name.clone())
        })
        .collect()
}

/// Resolves a raw `SOCMIX_TRACE` value (`None` = unset) in the
/// workspace knob pattern: the environment is read by the gate module
/// and the parse here is pure so rejection is testable. Invalid values
/// warn once and leave tracing off rather than being silently
/// swallowed.
pub(crate) fn trace_from_env(raw: Option<&str>) -> bool {
    if let Some(v) = raw {
        match parse_trace(v) {
            Some(on) => return on,
            None => crate::warn_once!(
                "trace",
                "ignoring invalid SOCMIX_TRACE={v:?}: expected 0/1/on/off/true/false, \
                 tracing stays off"
            ),
        }
    }
    false
}

/// A valid `SOCMIX_TRACE` value is a boolean spelling (empty = off).
fn parse_trace(v: &str) -> Option<bool> {
    match v.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" => Some(false),
        "1" | "on" | "true" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_through_the_thread_stack() {
        let _g = crate::test_gate_lock();
        crate::set_trace_enabled(true);
        let _ = drain();
        let outer = begin("outer");
        let inner = begin("inner");
        end(inner);
        end(outer);
        let events = drain();
        crate::set_trace_enabled(false);
        let begin_inner = events
            .iter()
            .find(|e| e.span == inner && e.phase == TracePhase::Begin)
            .expect("inner begin recorded");
        assert_eq!(begin_inner.parent, outer);
        let begin_outer = events
            .iter()
            .find(|e| e.span == outer && e.phase == TracePhase::Begin)
            .expect("outer begin recorded");
        assert_eq!(begin_outer.parent, 0);
        // an end event carries the span left open beneath it
        let end_inner = events
            .iter()
            .find(|e| e.span == inner && e.phase == TracePhase::End)
            .expect("inner end recorded");
        assert_eq!(end_inner.parent, outer);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = crate::test_gate_lock();
        crate::set_trace_enabled(false);
        let _ = drain();
        let span = begin("ghost");
        assert_eq!(span, 0);
        end(span);
        {
            let _s = TraceSpan::begin("ghost2");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn span_ids_carry_the_pid() {
        let _g = crate::test_gate_lock();
        crate::set_trace_enabled(true);
        let span = begin("pid-check");
        end(span);
        let _ = drain();
        crate::set_trace_enabled(false);
        assert_eq!((span >> 32) as u32, std::process::id());
    }

    #[test]
    fn mismatched_nesting_unwinds_defensively() {
        let _g = crate::test_gate_lock();
        crate::set_trace_enabled(true);
        let _ = drain();
        let outer = begin("outer");
        let _abandoned = begin("abandoned");
        end(outer); // closes outer, unwinding the abandoned child
        let next = begin("next");
        end(next);
        let events = drain();
        crate::set_trace_enabled(false);
        let b = events
            .iter()
            .find(|e| e.span == next && e.phase == TracePhase::Begin)
            .expect("next begin recorded");
        assert_eq!(
            b.parent, 0,
            "the abandoned child must not parent later spans"
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = crate::test_gate_lock();
        crate::set_trace_enabled(true);
        let _ = drain();
        let before = dropped_events();
        for _ in 0..(TRACE_RING_CAP / 2 + 8) {
            let s = begin("hot");
            end(s);
        }
        let events = drain();
        crate::set_trace_enabled(false);
        assert!(events.len() <= TRACE_RING_CAP);
        assert!(dropped_events() > before);
    }

    #[test]
    fn trace_env_parse_accepts_boolean_spellings() {
        assert!(!trace_from_env(None));
        assert!(!trace_from_env(Some("0")));
        assert!(!trace_from_env(Some("off")));
        assert!(!trace_from_env(Some("")));
        assert!(trace_from_env(Some("1")));
        assert!(trace_from_env(Some(" on ")));
        assert!(trace_from_env(Some("TRUE")));
        assert_eq!(parse_trace("maybe"), None);
    }

    #[test]
    fn invalid_trace_env_warns_once() {
        crate::set_log_level(crate::Level::Warn);
        let _ = crate::take_recent_events();
        assert!(!trace_from_env(Some("sideways")));
        assert!(!trace_from_env(Some("sideways")));
        let events = crate::take_recent_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.contains("invalid SOCMIX_TRACE"))
                .count(),
            1,
            "expected exactly one warning, got {events:?}"
        );
    }
}
