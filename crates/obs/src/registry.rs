//! The global registry of named counters and gauges.
//!
//! Instruments are declared as `static` items (`Counter::new` is
//! `const`) and register themselves into a process-wide list on first
//! touch — declaration costs nothing, and a counter that never fires
//! never appears in a snapshot. Registration pushes the instrument
//! under the registry lock and only then sets its [`AtomicBool`] flag,
//! so an instrument that has recorded anything is listed in every
//! snapshot ordered after that recording. The steady-state cost of
//! `add` is the metrics-gate load, an acquire load of the flag and one
//! relaxed `fetch_add`.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A named monotonic counter.
///
/// ```
/// static MATVECS: socmix_obs::Counter = socmix_obs::Counter::new("demo.matvecs");
/// socmix_obs::set_metrics_enabled(true);
/// MATVECS.add(3);
/// assert!(MATVECS.get() >= 3);
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Declares a counter (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`; a no-op (one relaxed load) while metrics are off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        // ORDERING: Acquire pairs with the Release store in `publish`
        // so a thread that sees the flag set also sees the registration
        // it guards; a stale `false` is harmless — `publish` dedupes.
        if !self.registered.load(Ordering::Acquire) {
            publish(&self.registered, |r| r.counters.push(self));
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1; a no-op while metrics are off.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value (0 if never fired or after [`reset`]).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A named signed level (e.g. bytes currently retained by a pool).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Declares a gauge (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Moves the level by `delta` (may be negative); a no-op while
    /// metrics are off.
    #[inline]
    pub fn add(&'static self, delta: i64) {
        if !crate::metrics_enabled() {
            return;
        }
        // ORDERING: Acquire pairs with the Release store in `publish`,
        // same contract as `Counter::add`.
        if !self.registered.load(Ordering::Acquire) {
            publish(&self.registered, |r| r.gauges.push(self));
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[derive(Default)]
pub(crate) struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    pub(crate) hists: Vec<&'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// Registers an instrument once: under the registry lock, `push` adds
/// it and only then is its `flag` set. A recorder that sees the flag
/// set therefore skips registering only once the instrument is listed,
/// so a snapshot ordered after its recording (say, after a pool job
/// whose worker counted a chunk returns) lists the instrument. Setting
/// the flag before the push would leave a window in which a counted
/// value is missing from such a snapshot.
#[cold]
pub(crate) fn publish(flag: &AtomicBool, push: impl FnOnce(&mut Registry)) {
    let mut reg = registry().lock().unwrap();
    // Relaxed: the flag is written only under this lock, which orders
    // this load after any earlier registration.
    if !flag.load(Ordering::Relaxed) {
        push(&mut reg);
        // ORDERING: Release pairs with the Acquire fast-path loads in
        // `add` and `record`: a thread that sees the flag set also sees
        // the push above, and so does any snapshot ordered after it.
        flag.store(true, Ordering::Release);
    }
}

/// A point-in-time copy of every registered instrument.
///
/// Duplicate names (the same logical counter declared at more than one
/// call site) are merged by summation; entries are sorted by name so
/// snapshots render and diff deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every registered gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-sorted.
    pub hists: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON object
    /// `{ "counters": {..}, "gauges": {..}, "histograms": {..} }`.
    pub fn to_json(&self) -> crate::Value {
        use crate::Value;
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Value::Int(*v as i64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), Value::Int(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| (h.name.clone(), h.to_json()))
            .collect();
        Value::Obj(vec![
            ("counters".into(), Value::Obj(counters)),
            ("gauges".into(), Value::Obj(gauges)),
            ("histograms".into(), Value::Obj(hists)),
        ])
    }
}

/// Snapshots every registered instrument.
///
/// Safe to call while writers are live: counter reads are relaxed, so
/// a snapshot taken mid-update sees each counter at *some* recent
/// value (never torn, never negative).
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap();
    let mut counters: Vec<(String, u64)> = Vec::new();
    for c in &reg.counters {
        match counters.iter_mut().find(|(n, _)| n == c.name) {
            Some((_, v)) => *v += c.get(),
            None => counters.push((c.name.to_string(), c.get())),
        }
    }
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut gauges: Vec<(String, i64)> = Vec::new();
    for g in &reg.gauges {
        match gauges.iter_mut().find(|(n, _)| n == g.name) {
            Some((_, v)) => *v += g.get(),
            None => gauges.push((g.name.to_string(), g.get())),
        }
    }
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut hists: Vec<HistogramSnapshot> = Vec::new();
    for h in &reg.hists {
        let snap = h.snapshot();
        match hists.iter_mut().find(|s| s.name == snap.name) {
            Some(s) => s.merge(&snap),
            None => hists.push(snap),
        }
    }
    hists.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        counters,
        gauges,
        hists,
    }
}

/// Zeroes every registered instrument (the registry itself persists).
///
/// `repro` calls this between commands so each manifest carries only
/// its own command's counts. Concurrent writers are not lost wholesale
/// — increments racing the reset land either before (wiped) or after
/// (kept), never torn.
pub fn reset() {
    let reg = registry().lock().unwrap();
    for c in &reg.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in &reg.gauges {
        g.value.store(0, Ordering::Relaxed);
    }
    for h in &reg.hists {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static ALPHA: Counter = Counter::new("test.registry.alpha");
    static ALPHA_TWIN: Counter = Counter::new("test.registry.alpha");
    static BYTES: Gauge = Gauge::new("test.registry.bytes");

    #[test]
    fn duplicate_names_merge_in_snapshot() {
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        ALPHA.add(2);
        ALPHA_TWIN.add(3);
        let total = snapshot().counter("test.registry.alpha").unwrap();
        assert!(total >= 5, "merged total {total}");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        BYTES.add(100);
        BYTES.add(-40);
        // other tests in this binary never touch this gauge
        assert_eq!(snapshot().gauge("test.registry.bytes"), Some(60));
        reset();
        assert_eq!(snapshot().gauge("test.registry.bytes"), Some(0));
    }

    #[test]
    fn disabled_counter_stays_zero() {
        static COLD: Counter = Counter::new("test.registry.cold");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(false);
        COLD.add(7);
        assert_eq!(COLD.get(), 0);
        crate::set_metrics_enabled(true);
    }

    #[test]
    fn snapshot_and_reset_under_concurrent_writers() {
        static HAMMER: Counter = Counter::new("test.registry.hammer");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        HAMMER.add(1);
                    }
                });
            }
            for _ in 0..50 {
                // never panics, never sees a torn value
                let _ = snapshot();
                reset();
            }
            stop.store(true, Ordering::Relaxed);
        });
        reset();
        assert_eq!(HAMMER.get(), 0);
    }

    #[test]
    fn snapshots_are_name_sorted() {
        static ZED: Counter = Counter::new("test.registry.zed");
        static AAR: Counter = Counter::new("test.registry.aardvark");
        let _g = crate::test_gate_lock();
        crate::set_metrics_enabled(true);
        ZED.incr();
        AAR.incr();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
