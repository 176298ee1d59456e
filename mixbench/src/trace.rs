//! The traced mode's span recorder and per-layer attribution.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public functions. A span holds a name, a start, an end, its
//! parent and the operation (solve, sweep or request) it belongs to.
//! Spans stay in memory and are written once, when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use socmix_obs::Value;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. Nesting follows a stack, so a tracer is used
/// by one thread; threads merge their tracers when the run ends.
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    op: Cell<u64>,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Tracer {
            epoch,
            thread,
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the operation id that new spans carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let start = self.ns(Instant::now());
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(SpanRec {
            name,
            op: self.op.get(),
            parent: self.stack.borrow().last().copied(),
            thread: self.thread,
            start_ns: start,
            end_ns: start,
        });
        self.stack.borrow_mut().push(index);
        Guard {
            tracer: self,
            index,
        }
    }

    /// Records an already finished interval under `parent` and
    /// returns its index (for intervals that begin before the caller
    /// could open a guard, such as a request's wait from its due time).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            op: self.op.get(),
            parent,
            thread: self.thread,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.into_inner()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.ns(Instant::now());
        self.tracer.spans.borrow_mut()[self.index].end_ns = end;
        self.tracer.stack.borrow_mut().pop();
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(parts: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-operation self time of each layer, in milliseconds:
/// `op → layer → ms`.
pub fn layer_self_ms(spans: &[SpanRec]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 / 1e6;
    }
    out
}

/// Tolerance of the layer-sum check where a replica's layers are
/// compared with the paired untraced library call (`spectral`,
/// `sampling`). Both calls do the same work, but single pairs differ by
/// up to a quarter on a shared machine.
pub const PAIRED_TOL: f64 = 0.10;

/// Outcome of the layer-sum check.
pub struct SumCheck {
    /// Largest |residual| / wall the check allows.
    pub tol: f64,
    /// Per operation, its wall time in ms.
    pub walls: Vec<f64>,
    /// Per operation, the sum of its layers' self times in ms.
    pub layers: Vec<f64>,
}

impl SumCheck {
    /// Per operation, (wall − Σ layers) / wall: the share of the wall
    /// time no layer explains.
    pub fn residual_frac(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(&self.layers)
            .map(|(w, l)| (w - l) / w)
            .collect()
    }

    /// The residual the check judges, in ms: the median over operations
    /// of wall − Σ layers. An operation's wall time and its layers may
    /// come from two calls made at different moments, which a burst of
    /// contention on a shared machine can move apart in either
    /// direction; the median is the typical operation's.
    pub fn residual_ms(&self) -> f64 {
        let r: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.layers)
            .map(|(w, l)| w - l)
            .collect();
        crate::stats::median(&r)
    }

    /// The median over operations of [`residual_frac`](Self::residual_frac).
    pub fn residual(&self) -> f64 {
        crate::stats::median(&self.residual_frac())
    }

    pub fn ok(&self) -> bool {
        !self.walls.is_empty() && self.residual().abs() <= self.tol
    }
}

/// Compares each operation's wall time (`walls`: op → ms), measured
/// apart from its spans, with the sum of its layers' self times. The
/// root span's own self time is what no layer covers, so it counts
/// towards the residual and not as a layer.
pub fn layer_sum_check(
    per_op: &BTreeMap<u64, BTreeMap<&'static str, f64>>,
    root: &str,
    walls: &BTreeMap<u64, f64>,
    tol: f64,
) -> SumCheck {
    let layers = walls
        .keys()
        .map(|op| {
            per_op.get(op).map_or(0.0, |l| {
                l.iter()
                    .filter(|(name, _)| **name != root)
                    .map(|(_, ms)| ms)
                    .sum()
            })
        })
        .collect();
    SumCheck {
        tol,
        walls: walls.values().copied().collect(),
        layers,
    }
}

/// Renders the spans as a Chrome trace document (complete events).
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(s.thread as i64)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("op".into(), Value::Int(s.op as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![("traceEvents".into(), Value::Arr(events))]).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> SpanRec {
        SpanRec {
            name,
            op: 1,
            parent,
            thread: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            rec("root", None, 0, 100),
            rec("a", Some(0), 10, 30),
            rec("b", Some(0), 25, 50),
            rec("c", Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![60, 18, 25, 2]);
    }

    #[test]
    fn root_self_time_is_residual() {
        // The root covers 100 ns but the call it mirrors took 140: the
        // 40 ns outside the root and the root's own 60 ns are residual.
        let spans = vec![rec("root", None, 0, 100), rec("a", Some(0), 10, 50)];
        let per_op = layer_self_ms(&spans);
        let walls = BTreeMap::from([(1, 140e-6)]);
        let check = layer_sum_check(&per_op, "root", &walls, 0.5);
        assert!((check.residual() - 100.0 / 140.0).abs() < 1e-12);
        assert!(!check.ok());
        assert!(layer_sum_check(&per_op, "root", &BTreeMap::from([(1, 50e-6)]), 0.5).ok());
    }
}
