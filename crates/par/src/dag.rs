//! Dependency-aware task scheduling: run a small DAG of heterogeneous
//! tasks with bounded concurrency.
//!
//! The chunk scheduler in this crate parallelizes *within* one
//! homogeneous index space; the experiment harness also needs to
//! overlap whole *stages* (each internally parallel) that have
//! ordering constraints between them — e.g. "every figure that reuses
//! a cached graph waits for the stage that generates it". This module
//! provides exactly that: [`run_dag`] executes task `i` only after all
//! of `deps[i]` completed, with at most `jobs` tasks in flight.
//!
//! Scheduling is deterministic in *which* tasks become ready when
//! (ready tasks are queued in ascending index order), though with
//! `jobs > 1` the wall-clock interleaving of bodies is of course not.
//! Callers needing deterministic aggregate output must make each task
//! write to its own buffer and combine buffers in task order — the
//! repro pipeline does exactly this to keep stage-parallel output
//! byte-identical to a serial run.
//!
//! Tasks run on dedicated scoped threads (not the chunk-pool workers):
//! stages block on I/O and dispatch their own inner pool jobs, and
//! parking a pool worker under a long-running stage would starve the
//! inner parallelism the stage itself relies on.

use socmix_obs::{Histogram, Span};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};

/// Time a DAG worker spends between finishing one task and acquiring
/// the next (lock contention plus waiting for dependencies to
/// unlock). On a trace timeline these spans make scheduling gaps
/// visible as their own slices instead of unexplained whitespace
/// between stage spans; they close before the task body starts, so
/// stage spans stay top-level.
static DAG_WAIT_NS: Histogram = Histogram::new("dag.task_wait_ns");

/// Errors from validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// `deps[i]` references a task index `>= n`.
    BadDependency { task: usize, dep: usize },
    /// The dependency graph has a cycle: no schedule can run all tasks.
    Cycle { unrunnable: usize },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::BadDependency { task, dep } => {
                write!(f, "task {task} depends on out-of-range task {dep}")
            }
            DagError::Cycle { unrunnable } => {
                write!(
                    f,
                    "dependency cycle: {unrunnable} task(s) can never become ready"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Shared scheduler state behind one mutex.
struct DagState {
    /// Ready-to-run task indices, ascending insertion order.
    ready: VecDeque<usize>,
    /// Unsatisfied dependency count per task.
    pending_deps: Vec<usize>,
    /// Tasks whose body has returned.
    completed: usize,
    /// Set when a body panicked: no further tasks are handed out.
    poisoned: bool,
}

/// Runs tasks `0..deps.len()` respecting `deps` (task `i` starts only
/// after every task in `deps[i]` completed), with at most `jobs`
/// running concurrently.
///
/// `body(i)` is called exactly once per task, from one of up to `jobs`
/// scoped worker threads (with `jobs <= 1`, everything runs on the
/// calling thread in index-respecting topological order). Duplicate
/// entries within one `deps[i]` are allowed.
///
/// Validation happens before anything runs: out-of-range dependencies
/// and cycles return a [`DagError`] with no task executed.
///
/// # Panics
///
/// If a task body panics, no *new* tasks start, in-flight tasks finish,
/// and the first panic payload is re-raised on the caller — same
/// propagation contract as the chunk pool.
pub fn run_dag<F>(deps: &[Vec<usize>], jobs: usize, body: F) -> Result<(), DagError>
where
    F: Fn(usize) + Sync,
{
    let n = deps.len();
    let mut pending_deps = vec![0usize; n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            if d >= n {
                return Err(DagError::BadDependency { task: i, dep: d });
            }
            pending_deps[i] += 1;
        }
    }
    // Kahn reachability check up front so a cycle is an error, not a
    // hang: count how many tasks a topological order can reach.
    {
        let mut pd = pending_deps.clone();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(i);
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| pd[i] == 0).collect();
        let mut reached = 0usize;
        while let Some(t) = queue.pop_front() {
            reached += 1;
            for &dep in &dependents[t] {
                pd[dep] -= 1;
                if pd[dep] == 0 {
                    queue.push_back(dep);
                }
            }
        }
        if reached != n {
            return Err(DagError::Cycle {
                unrunnable: n - reached,
            });
        }
    }
    if n == 0 {
        return Ok(());
    }

    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let ready: VecDeque<usize> = (0..n).filter(|&i| pending_deps[i] == 0).collect();

    let jobs = jobs.max(1).min(n);
    if jobs == 1 {
        // Serial fast path: plain Kahn order on the calling thread.
        let mut state = DagState {
            ready,
            pending_deps,
            completed: 0,
            poisoned: false,
        };
        while let Some(t) = state.ready.pop_front() {
            body(t);
            state.completed += 1;
            for &dep in &dependents[t] {
                state.pending_deps[dep] -= 1;
                if state.pending_deps[dep] == 0 {
                    state.ready.push_back(dep);
                }
            }
        }
        return Ok(());
    }

    let state = Mutex::new(DagState {
        ready,
        pending_deps,
        completed: 0,
        poisoned: false,
    });
    let cv = Condvar::new();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let body = &body;
    let state = &state;
    let cv = &cv;
    let panic_payload = &panic_payload;
    let dependents = &dependents;

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(move || loop {
                let task = {
                    let mut wait_span = Span::start(&DAG_WAIT_NS);
                    let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if s.poisoned || s.completed == n {
                            return;
                        }
                        if let Some(t) = s.ready.pop_front() {
                            wait_span.finish();
                            break t;
                        }
                        // Nothing ready but the run is not over: wait
                        // for a completion to unlock a dependent.
                        s = cv.wait(s).unwrap_or_else(|e| e.into_inner());
                    }
                };
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(task)));
                let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
                s.completed += 1;
                match result {
                    Ok(()) => {
                        for &dep in &dependents[task] {
                            s.pending_deps[dep] -= 1;
                            if s.pending_deps[dep] == 0 {
                                s.ready.push_back(dep);
                            }
                        }
                    }
                    Err(payload) => {
                        s.poisoned = true;
                        let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
                drop(s);
                cv.notify_all();
            });
        }
    });

    if let Some(payload) = panic_payload
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        std::panic::resume_unwind(payload);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Runs the dag and records completion order.
    fn order_of(deps: &[Vec<usize>], jobs: usize) -> Vec<usize> {
        let log = StdMutex::new(Vec::new());
        run_dag(deps, jobs, |i| log.lock().unwrap().push(i)).unwrap();
        log.into_inner().unwrap()
    }

    #[test]
    fn empty_dag_is_ok() {
        run_dag(&[], 4, |_| panic!("no tasks")).unwrap();
    }

    #[test]
    fn independent_tasks_all_run() {
        for jobs in [1, 2, 8] {
            let hits: Vec<AtomicUsize> = (0..20).map(|_| AtomicUsize::new(0)).collect();
            let deps = vec![Vec::new(); 20];
            run_dag(&deps, jobs, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn serial_order_is_topological_and_stable() {
        // 2 -> 0, 3 -> {1, 2}; ready order must follow ascending index
        let deps = vec![vec![], vec![], vec![0], vec![1, 2]];
        assert_eq!(order_of(&deps, 1), vec![0, 1, 2, 3]);
        // chain in reverse declaration order
        let chain = vec![vec![1], vec![2], vec![]];
        assert_eq!(order_of(&chain, 1), vec![2, 1, 0]);
    }

    #[test]
    fn parallel_respects_dependencies() {
        // diamond: 0 -> {1, 2} -> 3, checked via completion stamps
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        for jobs in [2, 4] {
            let stamp: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let tick = AtomicUsize::new(1);
            run_dag(&deps, jobs, |i| {
                stamp[i].store(tick.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            })
            .unwrap();
            let s: Vec<usize> = stamp.iter().map(|a| a.load(Ordering::SeqCst)).collect();
            assert!(s[0] < s[1] && s[0] < s[2], "{s:?}");
            assert!(s[3] > s[1] && s[3] > s[2], "{s:?}");
        }
    }

    #[test]
    fn parallel_actually_overlaps() {
        // two independent tasks that each wait for the other to start:
        // only a concurrent schedule can finish this
        let started: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        run_dag(&[vec![], vec![]], 2, |i| {
            started[i].store(1, Ordering::SeqCst);
            let other = &started[1 - i];
            let t0 = std::time::Instant::now();
            while other.load(Ordering::SeqCst) == 0 {
                assert!(t0.elapsed().as_secs() < 10, "peer never started");
                std::thread::yield_now();
            }
        })
        .unwrap();
    }

    #[test]
    fn rejects_out_of_range_dependency() {
        let err = run_dag(&[vec![5]], 2, |_| {}).unwrap_err();
        assert_eq!(err, DagError::BadDependency { task: 0, dep: 5 });
    }

    #[test]
    fn rejects_cycles_without_running_anything() {
        let ran = AtomicUsize::new(0);
        let err = run_dag(&[vec![1], vec![0], vec![]], 2, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
        assert_eq!(err, DagError::Cycle { unrunnable: 2 });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn self_cycle_is_rejected() {
        assert!(matches!(
            run_dag(&[vec![0]], 1, |_| {}),
            Err(DagError::Cycle { .. })
        ));
    }

    #[test]
    fn duplicate_deps_are_fine() {
        assert_eq!(order_of(&[vec![], vec![0, 0, 0]], 2).len(), 2);
    }

    #[test]
    fn panic_propagates_and_skips_dependents() {
        let ran = AtomicUsize::new(0);
        let deps = vec![vec![], vec![0]];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_dag(&deps, 2, |i| {
                if i == 0 {
                    panic!("stage failed");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "dependent must not run");
    }

    #[test]
    fn deep_chain_completes() {
        let n = 500;
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let order = order_of(&deps, 4);
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }
}
