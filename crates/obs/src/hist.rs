//! Log₂-bucketed histograms for latency and size distributions.
//!
//! A [`Histogram`] is 64 atomic buckets plus count/sum/max: bucket 0
//! holds zeros and bucket `i` holds values in `[2^(i-1), 2^i)`, so one
//! histogram spans nanoseconds to hours with constant memory and a
//! `leading_zeros` per record. That resolution (the bucket knows the
//! value within 2×) is exactly what dispatch-latency and span-timing
//! questions need — "is this microseconds or milliseconds" — without
//! the allocation or locking a quantile sketch would cost on the hot
//! path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of buckets; values at or above `2^(BUCKETS-2)` saturate into
/// the last bucket.
pub const BUCKETS: usize = 64;

/// A named, thread-safe, log₂-bucketed histogram.
///
/// Recording is wait-free (four relaxed atomic RMWs) and a no-op while
/// metrics are off. Like [`crate::Counter`], histograms are declared
/// as `static` items and register themselves on first record.
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Declares a histogram (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        // interior mutability is the point: this const is only the
        // array-initialization seed for the atomic buckets
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            registered: AtomicBool::new(false),
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation; a no-op (one relaxed load) while
    /// metrics are off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        // ORDERING: Acquire pairs with the Release store in
        // `registry::publish` so a thread that sees the flag set also
        // sees the registration it guards; a stale `false` is harmless
        // — `publish` dedupes.
        if !self.registered.load(Ordering::Acquire) {
            crate::registry::publish(&self.registered, |r| r.hists.push(self));
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Copies the current state out (relaxed reads; safe under
    /// concurrent recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Bucket 0 ← 0; bucket `i` ← `[2^(i-1), 2^i)`; saturates at the top.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// All [`BUCKETS`] bucket counts (mostly zero in practice).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log₂
    /// buckets: the bucket holding the target rank is located exactly,
    /// and the value is interpolated linearly within its `[2^(i-1),
    /// 2^i)` range — so the estimate is within 2× of the true value,
    /// the same resolution the buckets themselves carry. Clamped to
    /// the exact tracked `max`; 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                // The top bucket is open-ended, so cap its width at
                // the tracked max — but never below the bucket floor:
                // in merged snapshots (and mid-record races, where the
                // bucket increment lands before the max update) `max`
                // can sit *below* `lo`, and the old `hi - lo` collapse
                // to width 0 dragged the estimate down to a value the
                // bucket provably does not contain.
                let hi = if i + 1 == BUCKETS {
                    self.max.max(lo)
                } else {
                    (1u64 << i) - 1
                };
                let width = (hi - lo) as f64;
                let frac = (target - seen) as f64 / n as f64;
                let v = lo.saturating_add((width * frac) as u64);
                // Clamp to the exact tracked max only when it is
                // consistent with the bucket; a stale max below `lo`
                // must not override the bucket's own lower bound.
                return if self.max >= lo { v.min(self.max) } else { v };
            }
            seen += n;
        }
        self.max
    }

    /// Folds another snapshot of the same logical histogram in
    /// (duplicate-name merging in [`crate::snapshot`]).
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Renders as `{ "count": .., "sum": .., "max": .., "mean": ..,
    /// "p50": .., "p95": .., "p99": .., "buckets": [[lo, n], ..] }`
    /// with only non-empty buckets listed. The quantiles are
    /// bucket-interpolated estimates (see
    /// [`quantile`](Self::quantile)) so manifest consumers get tail
    /// latencies without eyeballing raw buckets.
    pub fn to_json(&self) -> crate::Value {
        use crate::Value;
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                Value::Arr(vec![Value::Int(lo as i64), Value::Int(n as i64)])
            })
            .collect();
        Value::Obj(vec![
            ("count".into(), Value::Int(self.count as i64)),
            ("sum".into(), Value::Int(self.sum as i64)),
            ("max".into(), Value::Int(self.max as i64)),
            ("mean".into(), Value::Float(self.mean())),
            ("p50".into(), Value::Int(self.quantile(0.50) as i64)),
            ("p95".into(), Value::Int(self.quantile(0.95) as i64)),
            ("p99".into(), Value::Int(self.quantile(0.99) as i64)),
            ("buckets".into(), Value::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_and_snapshot() {
        static H: Histogram = Histogram::new("test.hist.basic");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        for v in [0u64, 1, 5, 5, 900, 1_000_000] {
            H.record(v);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_000_911);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[3], 2); // the fives
        assert!((s.mean() - 1_000_911.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        static H: Histogram = Histogram::new("test.hist.concurrent");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        H.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(H.snapshot().count, 40_000);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        static H: Histogram = Histogram::new("test.hist.quantiles");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        // 90 fast observations (~1µs) and 10 slow ones (~1ms): p50
        // must sit in the fast bucket, p99 in the slow one.
        for _ in 0..90 {
            H.record(1_000);
        }
        for _ in 0..10 {
            H.record(1_000_000);
        }
        let s = H.snapshot();
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!((512..2048).contains(&p50), "p50 = {p50}");
        assert!((524_288..2_097_152).contains(&p99), "p99 = {p99}");
        assert!(p50 <= s.quantile(0.95) && s.quantile(0.95) <= p99);
        assert!(s.quantile(1.0) <= s.max);
    }

    #[test]
    fn quantile_edge_cases() {
        static H: Histogram = Histogram::new("test.hist.quantile_edges");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        assert_eq!(H.snapshot().quantile(0.5), 0, "empty histogram");
        H.record(0);
        assert_eq!(H.snapshot().quantile(0.99), 0, "all zeros");
        H.reset();
        H.record(7);
        let s = H.snapshot();
        assert!(s.quantile(0.5) <= 7, "single value clamps to max");
        assert_eq!(s.quantile(1.0).max(s.quantile(0.0)), s.quantile(1.0));
    }

    #[test]
    fn top_bucket_with_stale_max_does_not_collapse() {
        // A merged snapshot (or a mid-record race: the bucket RMW
        // lands before the max RMW) can carry a top-bucket count while
        // `max` still reads below the bucket floor. The estimate must
        // respect the bucket's own lower bound instead of degenerating
        // to the stale max.
        let s = HistogramSnapshot {
            name: "stale".into(),
            count: 1,
            sum: 1 << 62,
            max: 0,
            buckets: {
                let mut b = vec![0u64; BUCKETS];
                b[BUCKETS - 1] = 1;
                b
            },
        };
        let q = s.quantile(1.0);
        assert!(q >= 1 << 62, "top-bucket estimate collapsed to {q}");
    }

    #[test]
    fn merged_snapshots_keep_quantiles_ordered() {
        static A: Histogram = Histogram::new("test.hist.merge_a");
        static B: Histogram = Histogram::new("test.hist.merge_b");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        A.reset();
        B.reset();
        for _ in 0..50 {
            A.record(1_000);
        }
        for _ in 0..50 {
            B.record(1_000_000);
        }
        let mut merged = A.snapshot();
        merged.merge(&B.snapshot());
        assert_eq!(merged.count, 100);
        let p25 = merged.quantile(0.25);
        let p75 = merged.quantile(0.75);
        assert!((512..2048).contains(&p25), "p25 = {p25}");
        assert!((524_288..2_097_152).contains(&p75), "p75 = {p75}");
        assert!(p25 <= p75 && p75 <= merged.max);
        // Merging an empty snapshot changes nothing.
        let empty = HistogramSnapshot {
            name: "empty".into(),
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        };
        let before = merged.quantile(0.5);
        merged.merge(&empty);
        assert_eq!(merged.quantile(0.5), before);
    }

    #[test]
    fn single_observation_quantiles_are_exact() {
        static H: Histogram = Histogram::new("test.hist.single_obs");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        // One observation: every quantile is that observation, because
        // the interpolation hits the bucket ceiling and the tracked
        // max clamps it back to the exact value. Includes the
        // open-ended top bucket (u64::MAX must not overflow).
        for v in [1u64, 7, 1_000, 1 << 62, u64::MAX] {
            H.reset();
            H.record(v);
            let s = H.snapshot();
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(s.quantile(q), v, "v = {v}, q = {q}");
            }
        }
    }

    #[test]
    fn json_includes_quantile_summary() {
        static H: Histogram = Histogram::new("test.hist.json_quantiles");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        for v in [100u64, 200, 300, 400, 10_000] {
            H.record(v);
        }
        let json = H.snapshot().to_json();
        let p50 = json.get("p50").and_then(|v| v.as_i64()).unwrap();
        let p95 = json.get("p95").and_then(|v| v.as_i64()).unwrap();
        let p99 = json.get("p99").and_then(|v| v.as_i64()).unwrap();
        assert!(p50 >= 1 && p50 <= p95 && p95 <= p99);
        assert!(p99 <= 10_000);
    }

    #[test]
    fn json_lists_only_nonempty_buckets() {
        static H: Histogram = Histogram::new("test.hist.json");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        H.reset();
        H.record(6);
        let json = H.snapshot().to_json();
        let buckets = match json.get("buckets") {
            Some(crate::Value::Arr(b)) => b,
            other => panic!("buckets missing: {other:?}"),
        };
        assert_eq!(buckets.len(), 1);
    }
}
