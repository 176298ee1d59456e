//! Bounded stores keyed by content hash: rendered `/mix` answers and
//! `/escape` tables.
//!
//! A `/mix` answer depends only on (graph content key, ε, query
//! class), so the server caches the *rendered response body* — the
//! cached and fresh paths serve byte-identical strings, which is what
//! the serve-smoke equivalence check compares. An `/escape` answer is
//! one entry of the (graph, `w`) escape table
//! ([`queries::escape_table`](crate::queries::escape_table)), so the
//! server keeps whole tables and every probe at that (graph, `w`)
//! reads the same one.
//!
//! Both stores are one [`Fifo`]: eviction is oldest-first over
//! insertion order once the entries' summed weights pass a fixed
//! budget. An answer weighs 1 against an entry cap (the values are
//! small rendered JSON strings); a table weighs its bytes against
//! [`TABLE_BUDGET`], and a table heavier than the whole budget is
//! served but not kept.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use socmix_obs::Counter;

static HITS: Counter = Counter::new("serve.cache.hit");
static MISSES: Counter = Counter::new("serve.cache.miss");
static TABLE_HITS: Counter = Counter::new("serve.table.hit");
static TABLE_MISSES: Counter = Counter::new("serve.table.miss");

/// Default entry cap for the server's answer cache.
pub const DEFAULT_CAP: usize = 1024;

/// Byte budget of the server's escape-table store: 8 Mi entries, so
/// eight tables of a million-node graph, or thousands of the
/// catalog's scaled-down graphs.
pub const TABLE_BUDGET: usize = 64 << 20;

/// FNV-1a over a list of u64 components — the cache key combinator.
/// (ε enters via `to_bits`, so `0.25` and `0.250000001` are distinct
/// keys; no float equality anywhere.)
pub fn answer_key(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct FifoInner<V> {
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
    /// Summed weight of the resident values.
    used: usize,
    /// Lookups that found nothing, for this store alone.
    misses: u64,
}

/// A store that evicts oldest-first once its values' summed weights
/// pass `budget`.
pub struct Fifo<V> {
    inner: Mutex<FifoInner<V>>,
    budget: usize,
    weigh: fn(&V) -> usize,
    hit_metric: &'static Counter,
    miss_metric: &'static Counter,
}

/// Rendered `/mix` bodies, at most an entry cap of them.
pub type AnswerCache = Fifo<Arc<String>>;

/// `/escape` tables, at most a byte budget of them.
pub type TableCache = Fifo<Arc<[f64]>>;

impl AnswerCache {
    /// A cache holding at most `cap` rendered answers.
    pub fn new(cap: usize) -> Self {
        Fifo::with_budget(cap.max(1), |_| 1, &HITS, &MISSES)
    }
}

impl TableCache {
    /// A store holding tables of at most `budget` bytes in all.
    pub fn new(budget: usize) -> Self {
        Fifo::with_budget(
            budget,
            |t| std::mem::size_of_val::<[f64]>(t),
            &TABLE_HITS,
            &TABLE_MISSES,
        )
    }
}

impl<V: Clone> Fifo<V> {
    fn with_budget(
        budget: usize,
        weigh: fn(&V) -> usize,
        hit_metric: &'static Counter,
        miss_metric: &'static Counter,
    ) -> Self {
        Fifo {
            inner: Mutex::new(FifoInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                used: 0,
                misses: 0,
            }),
            budget,
            weigh,
            hit_metric,
            miss_metric,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FifoInner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value for `key`, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        match inner.map.get(&key) {
            Some(v) => {
                self.hit_metric.incr();
                Some(v.clone())
            }
            None => {
                self.miss_metric.incr();
                inner.misses += 1;
                None
            }
        }
    }

    /// The value for `key`, made by `make` and put on a miss. `make`
    /// runs with no lock held, so a slow build never blocks lookups of
    /// other keys; callers that miss the same key at once each make
    /// it; the server's batcher runs one `/escape` compute per key at
    /// a time, so its tables are built once.
    pub fn get_or_insert_with(
        &self,
        key: u64,
        make: impl FnOnce() -> Result<V, String>,
    ) -> Result<V, String> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let v = make()?;
        self.put(key, v.clone());
        Ok(v)
    }

    /// Inserts a value, evicting the oldest entries while the summed
    /// weight is past the budget. A value heavier than the whole
    /// budget is not kept. Re-inserting an existing key refreshes the
    /// value without growing the order queue.
    pub fn put(&self, key: u64, value: V) {
        let weight = (self.weigh)(&value);
        if weight > self.budget {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.used += weight;
        match inner.map.insert(key, value) {
            Some(old) => inner.used -= (self.weigh)(&old),
            None => inner.order.push_back(key),
        }
        while inner.used > self.budget {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(old) = inner.map.remove(&oldest) {
                inner.used -= (self.weigh)(&old);
            }
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups of this store that found nothing; for the table store,
    /// each is one table build.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_eps_and_graph() {
        let a = answer_key(&[1, 0.25f64.to_bits()]);
        let b = answer_key(&[1, 0.26f64.to_bits()]);
        let c = answer_key(&[2, 0.25f64.to_bits()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, answer_key(&[1, 0.25f64.to_bits()]), "deterministic");
    }

    #[test]
    fn fifo_eviction_respects_the_cap() {
        let cache = AnswerCache::new(2);
        cache.put(1, Arc::new("one".into()));
        cache.put(2, Arc::new("two".into()));
        cache.put(3, Arc::new("three".into()));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none(), "oldest entry evicted");
        assert_eq!(cache.get(2).as_deref().map(String::as_str), Some("two"));
        assert_eq!(cache.get(3).as_deref().map(String::as_str), Some("three"));
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let cache = AnswerCache::new(2);
        cache.put(1, Arc::new("a".into()));
        cache.put(1, Arc::new("b".into()));
        cache.put(2, Arc::new("c".into()));
        assert_eq!(cache.len(), 2, "no phantom entry from the refresh");
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("b"));
    }

    fn table(len: usize, fill: f64) -> Arc<[f64]> {
        vec![fill; len].into()
    }

    #[test]
    fn table_fifo_evicts_oldest_first_at_its_byte_budget() {
        // Room for six entries: three two-entry tables.
        let tables = TableCache::new(6 * 8);
        for key in 1..=3 {
            tables.put(key, table(2, key as f64));
        }
        assert_eq!(tables.len(), 3, "exactly at the budget, nothing leaves");
        // A three-entry table needs two old ones gone, oldest first.
        tables.put(4, table(3, 4.0));
        assert!(tables.get(1).is_none() && tables.get(2).is_none());
        assert_eq!(tables.get(3).as_deref(), Some(&[3.0, 3.0][..]));
        assert_eq!(tables.get(4).as_deref(), Some(&[4.0; 3][..]));
        // Heavier than the whole budget: served by its builder, not kept,
        // and nothing resident is evicted for it.
        let big = tables.get_or_insert_with(5, || Ok(table(7, 5.0)));
        assert_eq!(big.map(|t| t.len()), Ok(7));
        assert!(tables.get(5).is_none(), "an oversized table is not kept");
        assert_eq!(tables.len(), 2);
        // One table of exactly the budget fits, alone.
        tables.put(6, table(6, 6.0));
        assert_eq!(tables.len(), 1);
        assert!(tables.get(6).is_some());
    }

    #[test]
    fn get_or_insert_with_builds_once_per_miss_and_keeps_failures_out() {
        let tables = TableCache::new(1 << 10);
        let built = tables.get_or_insert_with(9, || Ok(table(4, 1.0)));
        assert!(built.is_ok());
        let again = tables.get_or_insert_with(9, || Err("a hit must not build".into()));
        assert_eq!(again.map(|t| t.len()), Ok(4));
        let failed = tables.get_or_insert_with(10, || Err("no table".into()));
        assert_eq!(failed, Err("no table".to_string()));
        assert!(tables.get(10).is_none(), "a failed build leaves nothing");
        // Misses: key 9 once, key 10 twice (its build and the check).
        assert_eq!(tables.misses(), 3);
    }
}
