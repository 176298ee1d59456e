//! On-disk artifact cache for generated catalog graphs.
//!
//! Generating the larger catalog stand-ins (the million-node
//! hierarchies behind Facebook A/B and Livejournal) dominates the
//! cold-start cost of a `repro` run, yet the result is a pure function
//! of `(dataset, scale, seed, generator version)`. This module caches
//! each generated graph as a `SOCMIXG1` binary file (see
//! `socmix_graph::io`) keyed by a content hash of exactly those
//! inputs, so subsequent runs reload in milliseconds instead of
//! regenerating.
//!
//! Properties the experiment harness relies on:
//!
//! - **Exactness** — the binary format round-trips the CSR arrays
//!   bit-for-bit, so a cache hit yields a graph `==` to the one the
//!   generator would produce; downstream results are unchanged.
//! - **Invalidation** — [`GENERATOR_VERSION`] participates in the key.
//!   Any change to generator algorithms or catalog recipes must bump
//!   it, which orphans every old entry (stale files are simply never
//!   looked up again and can be deleted at leisure).
//! - **Corruption safety** — a truncated or corrupt entry fails the
//!   binary reader's validation (`LoadError`, never a panic), is
//!   counted and warned about, and falls back to regeneration,
//!   overwriting the bad entry.
//! - **Concurrency** — writes go to a unique temp file in the cache
//!   directory followed by an atomic rename, so concurrent stages
//!   racing on the same key at worst both generate; neither can
//!   observe a half-written entry.
//!
//! Telemetry: `gen.cache.hit` / `gen.cache.miss` / `gen.cache.corrupt`
//! / `gen.cache.write_error` counters (visible in `repro --metrics`
//! manifests), plus a per-instance event log the harness drains into
//! the manifest's cache-provenance section.

use crate::Dataset;
use socmix_graph::{io as gio, Graph};
use socmix_obs::Counter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the generator algorithms + catalog recipes feeding the
/// cache key. **Bump this whenever any generator or recipe changes
/// behavior** — that is the cache-invalidation rule: old entries stop
/// matching and are regenerated on next use.
pub const GENERATOR_VERSION: u32 = 1;

static CACHE_HIT: Counter = Counter::new("gen.cache.hit");
static CACHE_MISS: Counter = Counter::new("gen.cache.miss");
static CACHE_CORRUPT: Counter = Counter::new("gen.cache.corrupt");
static CACHE_WRITE_ERROR: Counter = Counter::new("gen.cache.write_error");

/// What happened when a graph was requested from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry existed and loaded cleanly.
    Hit,
    /// No entry; generated and stored.
    Miss,
    /// Entry existed but failed validation; regenerated and replaced.
    Corrupt,
}

impl CacheOutcome {
    /// Stable lowercase name for manifests.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Corrupt => "corrupt",
        }
    }
}

/// One cache interaction, recorded for run-manifest provenance.
#[derive(Debug, Clone)]
pub struct CacheEvent {
    /// Catalog dataset name.
    pub dataset: String,
    /// Scale the graph was requested at.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// The content-hash key (hex of this is the filename stem suffix).
    pub key: u64,
    /// Hit / miss / corrupt.
    pub outcome: CacheOutcome,
}

/// A directory of cached generated graphs.
///
/// Cheap to construct; the directory is created on first write. Safe
/// to share across threads (`&self` everywhere, internal event log
/// behind a mutex).
#[derive(Debug)]
pub struct GraphCache {
    dir: PathBuf,
    events: Mutex<Vec<CacheEvent>>,
}

impl GraphCache {
    /// A cache rooted at `dir`.
    pub fn at<P: Into<PathBuf>>(dir: P) -> Self {
        GraphCache {
            dir: dir.into(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content-hash key for `(dataset, scale, seed)` under the current
    /// [`GENERATOR_VERSION`]. The scale enters via its exact bit
    /// pattern, so `0.1` and `0.1 + 1e-17` are distinct entries.
    pub fn key(ds: Dataset, scale: f64, seed: u64) -> u64 {
        let canonical = format!(
            "{}|scale={:016x}|seed={}|gv={}",
            ds.name(),
            scale.to_bits(),
            seed,
            GENERATOR_VERSION
        );
        crate::catalog::fnv1a(canonical.as_bytes())
    }

    /// Path the entry for `(dataset, scale, seed)` lives at.
    pub fn entry_path(&self, ds: Dataset, scale: f64, seed: u64) -> PathBuf {
        let slug: String = ds
            .name()
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        self.dir.join(format!(
            "{slug}-{:016x}.socmixg",
            Self::key(ds, scale, seed)
        ))
    }

    /// Loads `(dataset, scale, seed)` from the cache, generating (and
    /// storing) it on a miss. The returned graph is identical to
    /// `ds.generate(scale, seed)` either way.
    pub fn load_or_generate(&self, ds: Dataset, scale: f64, seed: u64) -> Graph {
        let path = self.entry_path(ds, scale, seed);
        let mut outcome = CacheOutcome::Miss;
        if path.is_file() {
            match gio::load_binary(&path) {
                Ok(g) => {
                    CACHE_HIT.add(1);
                    self.record(ds, scale, seed, CacheOutcome::Hit);
                    return g;
                }
                Err(e) => {
                    CACHE_CORRUPT.add(1);
                    socmix_obs::obs_warn!(
                        "gen.cache",
                        "corrupt cache entry {} ({e}); regenerating",
                        path.display()
                    );
                    outcome = CacheOutcome::Corrupt;
                }
            }
        }
        let g = ds.generate(scale, seed);
        CACHE_MISS.add(1);
        if let Err(e) = self.store(&g, &path) {
            CACHE_WRITE_ERROR.add(1);
            socmix_obs::obs_warn!(
                "gen.cache",
                "could not write cache entry {} ({e}); continuing uncached",
                path.display()
            );
        }
        self.record(ds, scale, seed, outcome);
        g
    }

    /// Writes `g` to `path` atomically (unique temp file + rename).
    fn store(&self, g: &Graph, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        // Unique per process *and* per call, so concurrent stages
        // writing the same key never collide on the temp name.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        gio::save_binary(g, &tmp)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn record(&self, ds: Dataset, scale: f64, seed: u64, outcome: CacheOutcome) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(CacheEvent {
                dataset: ds.name().to_string(),
                scale,
                seed,
                key: Self::key(ds, scale, seed),
                outcome,
            });
    }

    /// Drains the recorded cache interactions (oldest first).
    pub fn take_events(&self) -> Vec<CacheEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> GraphCache {
        let dir =
            std::env::temp_dir().join(format!("socmix-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        GraphCache::at(dir)
    }

    #[test]
    fn miss_then_hit_round_trips_exactly() {
        let c = temp_cache("roundtrip");
        let ds = Dataset::WikiVote;
        let direct = ds.generate(0.02, 11);
        let first = c.load_or_generate(ds, 0.02, 11);
        assert_eq!(first, direct);
        assert!(c.entry_path(ds, 0.02, 11).is_file());
        let second = c.load_or_generate(ds, 0.02, 11);
        assert_eq!(second, direct);
        let events = c.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].outcome, CacheOutcome::Miss);
        assert_eq!(events[1].outcome, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn concurrent_misses_on_one_key_leave_one_entry() {
        // four threads race on one key in an empty directory, as two
        // repro stages needing the same missing graph do
        let c = temp_cache("race");
        let ds = Dataset::WikiVote;
        let direct = ds.generate(0.02, 13);
        let start = std::sync::Barrier::new(4);
        let graphs: Vec<Graph> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        c.load_or_generate(ds, 0.02, 13)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(graphs.iter().all(|g| *g == direct));
        let names: Vec<String> = std::fs::read_dir(c.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            names.iter().filter(|n| n.ends_with(".socmixg")).count(),
            1,
            "{names:?}"
        );
        assert!(!names.iter().any(|n| n.contains("tmp.")), "{names:?}");
        c.take_events();
        assert_eq!(c.load_or_generate(ds, 0.02, 13), direct);
        assert_eq!(c.take_events()[0].outcome, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn corrupt_entry_regenerates_and_heals() {
        let c = temp_cache("corrupt");
        let ds = Dataset::Physics1;
        let direct = ds.generate(0.02, 5);
        let _ = c.load_or_generate(ds, 0.02, 5);
        // clobber the entry
        let path = c.entry_path(ds, 0.02, 5);
        std::fs::write(&path, b"NOTAGRAPH").unwrap();
        let again = c.load_or_generate(ds, 0.02, 5);
        assert_eq!(again, direct);
        let events = c.take_events();
        assert_eq!(events[1].outcome, CacheOutcome::Corrupt);
        // the bad entry was replaced by a good one
        let healed = c.load_or_generate(ds, 0.02, 5);
        assert_eq!(healed, direct);
        assert_eq!(c.take_events()[0].outcome, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn keys_separate_all_inputs() {
        let k = GraphCache::key;
        let base = k(Dataset::WikiVote, 0.05, 7);
        assert_ne!(base, k(Dataset::Enron, 0.05, 7), "dataset in key");
        assert_ne!(base, k(Dataset::WikiVote, 0.06, 7), "scale in key");
        assert_ne!(base, k(Dataset::WikiVote, 0.05, 8), "seed in key");
        // deterministic across calls
        assert_eq!(base, k(Dataset::WikiVote, 0.05, 7));
    }

    #[test]
    fn entry_path_is_filesystem_safe() {
        let c = GraphCache::at("/tmp/x");
        for &ds in Dataset::all() {
            let p = c.entry_path(ds, 0.05, 7);
            let name = p.file_name().unwrap().to_str().unwrap();
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '-' || ch == '.'),
                "{name}"
            );
            assert!(name.ends_with(".socmixg"));
        }
    }

    #[test]
    fn write_failure_still_returns_graph() {
        // A cache rooted somewhere unwritable degrades to pass-through.
        let c = GraphCache::at("/proc/definitely-not-writable/socmix");
        let g = c.load_or_generate(Dataset::WikiVote, 0.02, 3);
        assert_eq!(g, Dataset::WikiVote.generate(0.02, 3));
        assert_eq!(c.take_events()[0].outcome, CacheOutcome::Miss);
    }
}
