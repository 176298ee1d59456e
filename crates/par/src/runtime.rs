//! The persistent worker-pool runtime behind every parallel dispatch.
//!
//! Workers are spawned **once**, lazily, the first time a job actually
//! needs them (a serial pool never touches the runtime), and then park
//! on a condvar between jobs. Dispatching a job is: reset a recycled
//! job header, push it on the shared queue, wake the workers — no
//! thread spawn, no join, and in steady state no heap allocation (job
//! headers are recycled through a freelist once every borrower has
//! dropped its handle). The caller participates as worker #0, claiming
//! chunks from the same atomic cursor, so a dispatch where the body is
//! tiny often completes before a single worker wakes.
//!
//! The worker set only grows: a job asking for `t` threads ensures
//! `t − 1` workers exist (capped by how many chunks the job actually
//! has). `SOCMIX_THREADS` bounds the *default* pool width via
//! [`crate::num_threads`]; explicit [`crate::Pool::with_threads`]
//! requests can still grow past it.
//!
//! # Why this is sound
//!
//! The job body is a type-erased borrowed closure. The dispatcher
//! blocks until `remaining == 0`; a worker decrements `remaining` only
//! *after* its chunk's body call returns, and claims chunks only while
//! the job header is reachable from the queue, so no thread can touch
//! the closure after the dispatch call returns. The header itself is
//! an `Arc` that outlives any late worker that cloned it from the
//! queue but lost the cursor race; headers are recycled only once
//! `Arc::get_mut` proves the dispatcher holds the sole reference.
//!
//! # Panic safety
//!
//! Every body call runs under `catch_unwind`, on workers and on the
//! dispatching thread alike, so a panicking body can never unwind out
//! of [`run`] while the job header (and its borrowed body pointer) is
//! still claimable from the queue, and can never kill a pool worker.
//! The first panic *poisons* the job — the cursor jumps to the end, so
//! no further chunks are claimed — and retires every never-handed-out
//! chunk from `remaining` in the same step, so the dispatcher's wait
//! still terminates once in-flight chunks drain. The dispatcher then
//! collects the header off the queue as usual and only *afterwards*
//! re-raises the stored payload via `resume_unwind`, matching the
//! propagation semantics of the `std::thread::scope` dispatch this
//! runtime replaced. Workers survive body panics, so the pool stays
//! fully functional for subsequent dispatches.

use crate::scheduler::ChunkPlan;
use socmix_obs::{Counter, Histogram, Span};
use std::any::Any;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// Telemetry (all no-ops costing one relaxed load while metrics are
// off; see socmix-obs). Counting never alters chunk geometry or claim
// order, so instrumented runs stay bit-for-bit identical.
static JOBS_DISPATCHED: Counter = Counter::new("par.jobs.dispatched");
static JOBS_INLINE: Counter = Counter::new("par.jobs.inline");
static CHUNKS_CALLER: Counter = Counter::new("par.chunks.caller");
static CHUNKS_WORKER: Counter = Counter::new("par.chunks.worker");
static WORKERS_SPAWNED: Counter = Counter::new("par.workers.spawned");
static PARKS: Counter = Counter::new("par.worker.parks");
static WAKES: Counter = Counter::new("par.worker.wakes");
static BODY_PANICS: Counter = Counter::new("par.body_panics");
/// Time from taking the runtime lock to the post-wake return of the
/// enqueue block — the "cost of handing a job to the pool".
static DISPATCH_NS: Histogram = Histogram::new("par.dispatch_ns");
/// Distribution of chunks one claimant (caller or worker) drained from
/// a single job — the load-balance picture.
static CHUNKS_PER_CLAIMANT: Histogram = Histogram::new("par.chunks_per_claimant");

thread_local! {
    /// Set once in `worker_loop` so chunk claims can be attributed to
    /// pool workers vs dispatching callers.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Type-erased pointer to the borrowed job body. Valid for the
/// duration of the dispatch call that published it (see module docs).
struct BodyPtr(*const (dyn Fn(std::ops::Range<usize>) + Sync));
// SAFETY: the pointee is `Sync` (bound in the type), and the pointer
// is dereferenced only while the dispatch call that published it is
// blocked in `run`, which keeps the borrowed closure alive — so the
// pointer may move to worker threads without outliving its target.
unsafe impl Send for BodyPtr {}
// SAFETY: same lifetime argument, and the pointee being `Sync` makes
// concurrent shared calls from many workers permitted.
unsafe impl Sync for BodyPtr {}

/// One dispatched job: a chunk plan, a claim cursor, and a completion
/// counter. Plain fields are mutated only between runs, under
/// `Arc::get_mut` uniqueness, and published to workers through the
/// queue mutex.
struct Job {
    plan: ChunkPlan,
    units: usize,
    body: BodyPtr,
    /// Next unclaimed chunk index.
    cursor: AtomicUsize,
    /// Chunks whose body call has not yet returned (plus, until a
    /// poisoning panic retires them, chunks never handed out).
    remaining: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload from any body call; re-raised by the
    /// dispatcher after the job is collected (module docs).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn idle() -> Self {
        Job {
            plan: ChunkPlan { n: 0, chunk: 1 },
            units: 0,
            body: BodyPtr(&NOOP_BODY as *const _),
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Claims and runs chunks until the cursor is exhausted. Called by
    /// workers and by the dispatching thread alike. Never unwinds: a
    /// panicking body poisons the job and stashes the payload for the
    /// dispatcher to re-raise (module docs, "Panic safety").
    fn run_chunks(&self) {
        // One gate check per claimant: the disabled path skips the TLS
        // read and every per-chunk count below.
        let tally = socmix_obs::metrics_enabled().then(|| {
            if IS_WORKER.with(Cell::get) {
                &CHUNKS_WORKER
            } else {
                &CHUNKS_CALLER
            }
        });
        let mut claimed = 0u64;
        loop {
            let u = self.cursor.fetch_add(1, Ordering::Relaxed);
            if u >= self.units {
                break;
            }
            claimed += 1;
            // SAFETY: `u < units` means the dispatcher is still blocked
            // in `run`, so the borrowed body is alive (module docs).
            let body = unsafe { &*self.body.0 };
            // AssertUnwindSafe: on unwind the job is poisoned and the
            // payload re-raised on the dispatcher, so a broken-invariant
            // body still surfaces as a panic on the caller, exactly as
            // it would under `std::thread::scope` dispatch.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body(self.plan.range(u))));
            // Chunks this call retires: its own, plus — on panic —
            // every chunk never handed out (the poisoned cursor
            // guarantees nobody will claim them).
            let mut retired = 1;
            if let Err(payload) = outcome {
                BODY_PANICS.incr();
                // ORDERING: AcqRel — release makes the poisoning
                // visible together with everything this worker did
                // before the panic; acquire orders the handed-out
                // reading before the retirement arithmetic below.
                let handed_out = self.cursor.swap(self.units, Ordering::AcqRel);
                retired += self.units - handed_out.min(self.units);
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // Count the chunk before retiring it: the retiring
            // decrement may wake the dispatcher, whose caller reads the
            // counters as soon as `run` returns.
            if let Some(chunks) = tally {
                chunks.incr();
            }
            // ORDERING: AcqRel — release publishes this worker's body
            // effects to whoever observes the count hit zero; acquire
            // makes the last decrementer see every other worker's
            // effects before the dispatcher is woken.
            if self.remaining.fetch_sub(retired, Ordering::AcqRel) == retired {
                let _g = self.done.lock().unwrap();
                self.done_cv.notify_all();
            }
        }
        if claimed > 0 && tally.is_some() {
            CHUNKS_PER_CLAIMANT.record(claimed);
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.units
    }
}

static NOOP_BODY: fn(std::ops::Range<usize>) = |_| {};

struct State {
    /// Jobs with unclaimed chunks (plus recently exhausted ones their
    /// dispatcher has not yet collected).
    queue: Vec<Arc<Job>>,
    /// Recycled job headers awaiting reuse.
    free: Vec<Arc<Job>>,
    /// Workers spawned so far (process lifetime).
    workers: usize,
}

/// Cap on the recycled-header freelist; beyond this, headers drop.
const FREE_CAP: usize = 64;

struct Runtime {
    state: Mutex<State>,
    work_cv: Condvar,
}

fn runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime {
        state: Mutex::new(State {
            queue: Vec::new(),
            free: Vec::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

fn worker_loop(rt: &'static Runtime) {
    IS_WORKER.with(|w| w.set(true));
    let mut guard = rt.state.lock().unwrap();
    loop {
        // Drop exhausted entries eagerly so the scan stays short under
        // concurrent dispatchers; each dispatcher holds its own Arc and
        // does not need the queue entry to collect its job.
        guard.queue.retain(|j| !j.exhausted());
        let job = guard.queue.first().cloned();
        match job {
            Some(job) => {
                drop(guard);
                job.run_chunks();
                drop(job);
                guard = rt.state.lock().unwrap();
            }
            None => {
                PARKS.incr();
                guard = rt.work_cv.wait(guard).unwrap();
                WAKES.incr();
            }
        }
    }
}

/// Runs `body` over the chunks of `plan` on up to `threads` threads
/// (the caller plus parked pool workers). Blocks until every chunk's
/// body call has returned.
///
/// `threads <= 1` and single-chunk plans run inline on the caller with
/// no locking and no runtime access, which keeps `Pool::serial`
/// spawn-free and lock-free.
pub(crate) fn run(plan: ChunkPlan, threads: usize, body: &(dyn Fn(std::ops::Range<usize>) + Sync)) {
    let units = plan.units();
    if units == 0 {
        return;
    }
    if threads <= 1 || units == 1 {
        JOBS_INLINE.incr();
        for u in 0..units {
            body(plan.range(u));
        }
        return;
    }
    JOBS_DISPATCHED.incr();
    let rt = runtime();
    let job;
    {
        let mut dispatch_span = Span::start(&DISPATCH_NS);
        let mut st = rt.state.lock().unwrap();
        // Reuse a header nobody else still references; allocate only
        // when the freelist has none (cold start).
        let slot = st
            .free
            .iter()
            .position(|j| Arc::strong_count(j) == 1)
            .map(|i| st.free.swap_remove(i));
        let mut handle = slot.unwrap_or_else(|| Arc::new(Job::idle()));
        {
            // socmix-lint: allow(panicking-api-in-hot-path): invariant assertion — the freelist scan above selected this Arc because strong_count == 1, and nothing else can clone it between the scan and here (the queue mutex is not yet involved).
            let j = Arc::get_mut(&mut handle).expect("freelist header is unique");
            j.plan = plan;
            j.units = units;
            // SAFETY: lifetime erasure only — the pointer is
            // dereferenced exclusively while this dispatch call is
            // blocked (see module docs), during which `body` is live.
            j.body = BodyPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(std::ops::Range<usize>) + Sync + '_),
                    *const (dyn Fn(std::ops::Range<usize>) + Sync + 'static),
                >(body as *const _)
            });
            j.cursor.store(0, Ordering::Relaxed);
            j.remaining.store(units, Ordering::Relaxed);
        }
        // Grow the worker set: the caller participates, so `threads`
        // threads of parallelism need `threads - 1` workers — and never
        // more workers than remaining chunks.
        let want = (threads - 1).min(units - 1);
        while st.workers < want {
            let name = format!("socmix-par-{}", st.workers + 1);
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(runtime()));
            match spawned {
                Ok(_) => {
                    st.workers += 1;
                    WORKERS_SPAWNED.incr();
                }
                // Degrade gracefully on spawn failure: the caller
                // drains the cursor itself, so the job still completes
                // on fewer threads. Panicking here would poison the
                // runtime mutex for the whole process.
                Err(_) => break,
            }
        }
        st.queue.push(handle.clone());
        job = handle;
        rt.work_cv.notify_all();
        drop(st);
        dispatch_span.finish();
    }
    // The caller is worker #0. `run_chunks` never unwinds — a body
    // panic poisons the job and is stashed for re-raising below.
    job.run_chunks();
    // Wait for workers still inside body calls on claimed chunks. A
    // poisoning panic retires the never-handed-out chunks, so this
    // terminates even when the job was cut short.
    {
        let mut g = job.done.lock().unwrap();
        // ORDERING: Acquire pairs with the AcqRel fetch_sub in
        // `run_chunks`: seeing zero here means every worker's body
        // effects happened-before the dispatcher returns the borrow.
        while job.remaining.load(Ordering::Acquire) != 0 {
            g = job.done_cv.wait(g).unwrap();
        }
    }
    let payload = job.panic.lock().unwrap().take();
    // Collect the header: off the queue, onto the freelist. This must
    // happen before any unwinding so no queue entry can outlive the
    // borrowed body it points at.
    {
        let mut st = rt.state.lock().unwrap();
        st.queue.retain(|j| !Arc::ptr_eq(j, &job));
        if st.free.len() < FREE_CAP {
            st.free.push(job);
        }
    }
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let hits_ref = &hits;
        run(ChunkPlan::new(1000, 4), 4, &move |range| {
            for i in range {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_dispatch_reuses_workers() {
        // 200 back-to-back jobs: under spawn-per-call this would be
        // 600 thread spawns; here the worker set stays fixed.
        let sum = AtomicU64::new(0);
        for _ in 0..200 {
            let sum_ref = &sum;
            run(ChunkPlan::new(64, 4), 4, &move |range| {
                for i in range {
                    sum_ref.fetch_add(i as u64, Ordering::Relaxed);
                }
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 200 * (64 * 63 / 2));
    }

    #[test]
    fn nested_dispatch_completes() {
        // a chunk body that itself dispatches a parallel job must not
        // deadlock: the inner dispatcher drains its own cursor.
        let total = AtomicU64::new(0);
        let total_ref = &total;
        run(ChunkPlan::new(8, 2), 2, &move |outer| {
            for _ in outer {
                run(ChunkPlan::new(32, 2), 2, &move |inner| {
                    for i in inner {
                        total_ref.fetch_add(i as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (32 * 31 / 2));
    }

    #[test]
    fn zero_units_is_noop() {
        run(ChunkPlan::new(0, 8), 8, &|_| panic!("no chunks to run"));
    }

    #[test]
    fn oversubscribed_threads_small_n() {
        let hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let hits_ref = &hits;
        run(ChunkPlan::new(3, 32), 32, &move |range| {
            for i in range {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panicking_body_propagates_and_pool_survives() {
        // the chunk that owns index 0 panics; the dispatch must
        // re-raise that panic on the caller (not hang, not UB) and the
        // pool must stay usable afterwards
        let caught = std::panic::catch_unwind(|| {
            run(ChunkPlan::new(256, 4), 4, &|range| {
                if range.start == 0 {
                    panic!("boom");
                }
            });
        });
        let payload = caught.expect_err("body panic must propagate to the dispatcher");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));

        let sum = AtomicU64::new(0);
        run(ChunkPlan::new(64, 4), 4, &|range| {
            for i in range {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn repeated_panics_never_hang_or_kill_workers() {
        // workers survive body panics (catch_unwind in run_chunks), so
        // even many panicking dispatches leave a functional pool
        for round in 0..20 {
            let caught = std::panic::catch_unwind(|| {
                run(ChunkPlan::new(512, 8), 4, &|range| {
                    if range.start % 64 == 0 {
                        panic!("round {round}");
                    }
                });
            });
            assert!(caught.is_err());
        }
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let hits_ref = &hits;
        run(ChunkPlan::new(100, 4), 4, &move |range| {
            for i in range {
                hits_ref[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dispatch_telemetry_counts_jobs_and_chunks() {
        socmix_obs::set_metrics_enabled(true);
        let before = socmix_obs::snapshot();
        let plan = ChunkPlan::new(1000, 4);
        let units = plan.units() as u64;
        run(plan, 4, &|_range| {});
        let after = socmix_obs::snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("par.jobs.dispatched") >= 1);
        // every chunk of this job was claimed by the caller or a worker
        // (other tests may add more; deltas only grow)
        assert!(delta("par.chunks.caller") + delta("par.chunks.worker") >= units);
    }

    #[test]
    fn concurrent_dispatchers_from_plain_threads() {
        // two foreign threads dispatching simultaneously share the
        // worker set without interference
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50 {
                    run(ChunkPlan::new(128, 3), 3, &|range| {
                        for _ in range {
                            a.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            s.spawn(|| {
                for _ in 0..50 {
                    run(ChunkPlan::new(128, 3), 3, &|range| {
                        for _ in range {
                            b.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        });
        assert_eq!(a.load(Ordering::Relaxed), 50 * 128);
        assert_eq!(b.load(Ordering::Relaxed), 50 * 128);
    }
}
