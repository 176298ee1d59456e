//! Natural (group-commit) batching of concurrent probe queries.
//!
//! Escape-probability probes against the same (graph, walk length)
//! pair all read one escape table
//! ([`queries::escape_table`](crate::queries::escape_table)), so a
//! batch shares one table lookup, or for the key's first batch one
//! build, and batching changes *nothing* about the answer bits. As one
//! batch per key computes at a time, probes that arrive during a build
//! wait for it and then find the table instead of building it again.
//!
//! The protocol has no timer. A query whose key has no batch computing
//! computes at once, alone. Queries that arrive while a batch of their
//! key computes join the key's next batch, up to `max` items; past that
//! they open a further batch behind it. When a batch publishes, the
//! next one starts at once, led by one of its own members. A lone query
//! therefore never waits for company, and under load each batch holds
//! whatever queued up while the previous one computed.
//!
//! Lock order is always registry → cell, and the compute runs with
//! *neither* lock held, so a slow matvec never blocks unrelated keys.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use socmix_obs::{Counter, Histogram};

static BATCHES: Counter = Counter::new("serve.batches");
static BATCHED_QUERIES: Counter = Counter::new("serve.batched_queries");
static BATCH_WIDTH: Histogram = Histogram::new("serve.batch_width");

/// What a batch computes over: one u64 item per query (for escape
/// probes, the start node).
pub type Item = u64;

/// The batch identity: queries coalesce only within the same key
/// (for escape probes: graph content key ⊕ walk length).
pub type BatchKey = u64;

enum Phase {
    /// Queued behind the key's computing batch; arrivals may join.
    Queued,
    /// Handed on by the previous batch: the first member to see it
    /// leads.
    Ready,
    /// A member is computing it; it is out of the registry.
    Running,
    /// Results are published, one per item.
    Done(Vec<f64>),
    /// The compute failed; every member gets the same message.
    Failed(String),
}

struct Cell {
    state: Mutex<CellState>,
    cond: Condvar,
}

struct CellState {
    items: Vec<Item>,
    /// Members that have not given up on their deadline. A queued
    /// batch nobody waits for any more is skipped at hand-off, because
    /// no member is left to lead it.
    waiting: usize,
    phase: Phase,
}

impl Cell {
    fn new(item: Item, phase: Phase) -> Arc<Cell> {
        Arc::new(Cell {
            state: Mutex::new(CellState {
                items: vec![item],
                waiting: 1,
                phase,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, CellState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The batch registry: for each key with a batch computing, the
/// batches queued behind it, oldest first.
pub struct Batcher {
    lanes: Mutex<HashMap<BatchKey, VecDeque<Arc<Cell>>>>,
    max: usize,
}

/// Outcome of one batched query.
pub enum BatchResult {
    /// The computed value for this query's item.
    Value(f64),
    /// The deadline passed while waiting on the batch.
    Deadline,
    /// The batch compute failed with this message.
    Error(String),
}

/// What a queued member's wait ended in.
enum Turn {
    /// The batch was handed on to this member to compute.
    Lead,
    /// Another member published the batch.
    Published,
    /// The member's deadline passed first.
    Deadline,
}

impl Batcher {
    /// A batcher that puts at most `max` queries in one batch.
    ///
    /// `_window` is ignored: batching needs no timer. The parameter
    /// remains for callers that still pass
    /// [`ServeConfig::batch_window`](crate::ServeConfig::batch_window).
    pub fn new(_window: Duration, max: usize) -> Self {
        Batcher {
            lanes: Mutex::new(HashMap::new()),
            max: max.max(1),
        }
    }

    /// Runs `item` under `key`, batching with concurrent callers.
    /// `compute` maps the batch's items to one value each, in order;
    /// it runs on exactly one member (the leader) per batch, with no
    /// batcher lock held. `deadline` bounds how long a member waits
    /// for another member's compute.
    pub fn run(
        &self,
        key: BatchKey,
        item: Item,
        deadline: Instant,
        compute: impl FnOnce(&[Item]) -> Result<Vec<f64>, String>,
    ) -> BatchResult {
        let (cell, index, leads) = self.join(key, item);
        let leads = leads
            || match wait_turn(&cell, deadline) {
                Turn::Lead => true,
                Turn::Published => false,
                Turn::Deadline => return BatchResult::Deadline,
            };
        if leads {
            self.lead(key, &cell, compute);
        }
        let st = cell.lock();
        match &st.phase {
            Phase::Done(values) => match values.get(index) {
                Some(v) => BatchResult::Value(*v),
                None => BatchResult::Error("batch result index out of range".into()),
            },
            Phase::Failed(e) => BatchResult::Error(e.clone()),
            Phase::Queued | Phase::Ready | Phase::Running => {
                BatchResult::Error("batch ended without a result".into())
            }
        }
    }

    /// Puts `item` in a batch for `key`: a new running batch when the
    /// key has none computing (the caller leads it at once), else the
    /// key's newest queued batch while it has room, else a new queued
    /// batch. Returns the cell, the item's index in it, and whether
    /// the caller leads now.
    fn join(&self, key: BatchKey, item: Item) -> (Arc<Cell>, usize, bool) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        let Some(queued) = lanes.get_mut(&key) else {
            lanes.insert(key, VecDeque::new());
            return (Cell::new(item, Phase::Running), 0, true);
        };
        if let Some(cell) = queued.back() {
            let mut st = cell.lock();
            if st.items.len() < self.max {
                st.items.push(item);
                st.waiting += 1;
                let index = st.items.len() - 1;
                drop(st);
                return (Arc::clone(cell), index, false);
            }
        }
        let cell = Cell::new(item, Phase::Queued);
        queued.push_back(Arc::clone(&cell));
        (cell, 0, false)
    }

    /// Leader path: compute the sealed batch with no lock held, then
    /// publish it and start the key's next batch.
    fn lead(
        &self,
        key: BatchKey,
        cell: &Cell,
        compute: impl FnOnce(&[Item]) -> Result<Vec<f64>, String>,
    ) {
        let items = std::mem::take(&mut cell.lock().items);
        BATCHES.incr();
        BATCHED_QUERIES.add(items.len() as u64);
        BATCH_WIDTH.record(items.len() as u64);
        let mut publish = Publish {
            batcher: self,
            key,
            cell,
            phase: None,
        };
        publish.phase = Some(match compute(&items) {
            Ok(values) if values.len() == items.len() => Phase::Done(values),
            Ok(values) => Phase::Failed(format!(
                "batch compute returned {} values for {} queries",
                values.len(),
                items.len()
            )),
            Err(e) => Phase::Failed(e),
        });
    }

    /// Starts `key`'s oldest queued batch that still has a member
    /// waiting, by handing it to them; with none left the key has no
    /// batch computing any more.
    fn hand_off(&self, key: BatchKey) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        let Some(queued) = lanes.get_mut(&key) else {
            return;
        };
        while let Some(next) = queued.pop_front() {
            let mut st = next.lock();
            if st.waiting > 0 {
                st.phase = Phase::Ready;
                drop(st);
                next.cond.notify_all();
                return;
            }
        }
        lanes.remove(&key);
    }

    /// Items in `key`'s queued batches.
    #[cfg(test)]
    pub(crate) fn queued(&self, key: BatchKey) -> usize {
        let lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        lanes
            .get(&key)
            .map_or(0, |q| q.iter().map(|c| c.lock().items.len()).sum())
    }
}

/// A queued member's wait: until its batch is handed on (the first
/// member to see that leads it), published by another member, or the
/// deadline passes. A member that leaves keeps its item in the batch;
/// its value is computed and dropped.
fn wait_turn(cell: &Cell, deadline: Instant) -> Turn {
    let mut st = cell.lock();
    loop {
        match st.phase {
            Phase::Ready => {
                st.phase = Phase::Running;
                return Turn::Lead;
            }
            Phase::Done(_) | Phase::Failed(_) => return Turn::Published,
            Phase::Queued | Phase::Running => {
                let now = Instant::now();
                if now >= deadline {
                    st.waiting -= 1;
                    return Turn::Deadline;
                }
                st = cell
                    .cond
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    }
}

/// Publishes a leader's batch and hands its key on when dropped, so a
/// compute that panics still fails its own batch and starts the next
/// one instead of leaving the key stuck behind a dead leader.
struct Publish<'a> {
    batcher: &'a Batcher,
    key: BatchKey,
    cell: &'a Cell,
    phase: Option<Phase>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let phase = self
            .phase
            .take()
            .unwrap_or_else(|| Phase::Failed("batch compute panicked".into()));
        self.cell.lock().phase = phase;
        self.cell.cond.notify_all();
        self.batcher.hand_off(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Sender};
    use std::thread::JoinHandle;

    /// The items of every batch computed, in compute order.
    type Log = Arc<Mutex<Vec<Vec<Item>>>>;

    type Answer = fn(&[Item]) -> Result<Vec<f64>, String>;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    fn doubled(items: &[Item]) -> Result<Vec<f64>, String> {
        Ok(items.iter().map(|&x| x as f64 * 2.0).collect())
    }

    fn logged(log: &Log, answer: Answer) -> impl FnOnce(&[Item]) -> Result<Vec<f64>, String> {
        let log = Arc::clone(log);
        move |items| {
            log.lock().unwrap().push(items.to_vec());
            answer(items)
        }
    }

    /// Starts a query whose compute blocks until the returned sender
    /// fires and then answers with `answer`; returns once it computes.
    fn blocked_leader(
        b: &Arc<Batcher>,
        key: BatchKey,
        item: Item,
        log: &Log,
        answer: Answer,
    ) -> (JoinHandle<BatchResult>, Sender<()>) {
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (b, compute) = (Arc::clone(b), logged(log, answer));
        let handle = std::thread::spawn(move || {
            b.run(key, item, far_deadline(), move |items| {
                started_tx.send(()).unwrap();
                released.recv().unwrap();
                compute(items)
            })
        });
        started.recv().expect("leader is computing");
        (handle, release)
    }

    /// Starts a query with a far deadline and returns once its item
    /// is queued, `queued` items in all for its key.
    fn queued_member(
        b: &Arc<Batcher>,
        key: BatchKey,
        item: Item,
        log: &Log,
        queued: usize,
    ) -> JoinHandle<BatchResult> {
        let (b2, compute) = (Arc::clone(b), logged(log, doubled));
        let handle = std::thread::spawn(move || b2.run(key, item, far_deadline(), compute));
        while b.queued(key) < queued {
            std::thread::yield_now();
        }
        handle
    }

    fn value(h: JoinHandle<BatchResult>) -> f64 {
        match h.join().expect("query thread") {
            BatchResult::Value(v) => v,
            BatchResult::Deadline => panic!("deadline with a far deadline"),
            BatchResult::Error(e) => panic!("batch failed: {e}"),
        }
    }

    #[test]
    fn lone_query_computes_at_once_at_width_one() {
        let b = Batcher::new(Duration::ZERO, 64);
        let log = Log::default();
        for i in 0..3u64 {
            match b.run(7, i, far_deadline(), logged(&log, doubled)) {
                BatchResult::Value(v) => assert_eq!(v, i as f64 * 2.0),
                _ => panic!("a lone query must succeed"),
            }
        }
        assert_eq!(*log.lock().unwrap(), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(b.queued(7), 0);
    }

    #[test]
    fn arrivals_during_a_compute_form_the_next_batches() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 3));
        let log = Log::default();
        let (leader, release) = blocked_leader(&b, 1, 0, &log, doubled);
        // Five arrivals while the leader computes: the next batch takes
        // the first three (batch_max), a further batch the other two.
        let members: Vec<_> = (1..=5u64)
            .map(|i| (i, queued_member(&b, 1, i, &log, i as usize)))
            .collect();
        release.send(()).unwrap();
        assert_eq!(value(leader), 0.0);
        for (i, h) in members {
            assert_eq!(value(h), i as f64 * 2.0, "item {i}");
        }
        assert_eq!(
            *log.lock().unwrap(),
            vec![vec![0], vec![1, 2, 3], vec![4, 5]]
        );
        assert_eq!(b.queued(1), 0);
    }

    #[test]
    fn queued_member_sheds_at_its_deadline_and_its_batch_still_runs() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 4));
        let log = Log::default();
        let (leader, release) = blocked_leader(&b, 1, 0, &log, doubled);
        // The leader stays blocked until this query has given up.
        let soon = Instant::now() + Duration::from_millis(5);
        let shed = b.run(1, 1, soon, logged(&log, doubled));
        assert!(matches!(shed, BatchResult::Deadline));
        assert_eq!(b.queued(1), 1, "the shed item stays in its batch");
        let stay = queued_member(&b, 1, 2, &log, 2);
        release.send(()).unwrap();
        assert_eq!(value(leader), 0.0);
        assert_eq!(value(stay), 4.0, "the remaining member leads the batch");
        assert_eq!(*log.lock().unwrap(), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn a_batch_every_member_left_is_skipped() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 1));
        let log = Log::default();
        let (leader, release) = blocked_leader(&b, 1, 0, &log, doubled);
        let soon = Instant::now() + Duration::from_millis(5);
        let shed = b.run(1, 1, soon, logged(&log, doubled));
        assert!(matches!(shed, BatchResult::Deadline));
        // batch_max 1: this one queues in a further batch.
        let stay = queued_member(&b, 1, 2, &log, 2);
        release.send(()).unwrap();
        assert_eq!(value(leader), 0.0);
        assert_eq!(value(stay), 4.0);
        assert_eq!(*log.lock().unwrap(), vec![vec![0], vec![2]]);
    }

    #[test]
    fn a_failure_reaches_only_its_own_batch() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 4));
        let log = Log::default();
        let (leader, release) = blocked_leader(&b, 1, 0, &log, |_| Err("graph melted".into()));
        let members: Vec<_> = (1..=2u64)
            .map(|i| (i, queued_member(&b, 1, i, &log, i as usize)))
            .collect();
        release.send(()).unwrap();
        match leader.join().expect("leader thread") {
            BatchResult::Error(e) => assert!(e.contains("melted")),
            _ => panic!("the failed compute must surface as an error"),
        }
        for (i, h) in members {
            assert_eq!(value(h), i as f64 * 2.0, "the next batch still runs");
        }
        assert_eq!(*log.lock().unwrap(), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn a_panicking_compute_still_hands_the_key_on() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 4));
        let log = Log::default();
        let (leader, release) = blocked_leader(&b, 1, 0, &log, |_| panic!("compute bug"));
        let member = queued_member(&b, 1, 1, &log, 1);
        release.send(()).unwrap();
        assert!(leader.join().is_err(), "the panic reaches its own thread");
        assert_eq!(value(member), 2.0);
        match b.run(1, 3, far_deadline(), logged(&log, doubled)) {
            BatchResult::Value(v) => assert_eq!(v, 6.0),
            _ => panic!("the key must not stay stuck"),
        }
        assert_eq!(*log.lock().unwrap(), vec![vec![0], vec![1], vec![3]]);
    }

    #[test]
    fn distinct_keys_never_share_a_batch() {
        let b = Arc::new(Batcher::new(Duration::ZERO, 8));
        let (log1, log2) = (Log::default(), Log::default());
        let (leader, release) = blocked_leader(&b, 1, 10, &log1, doubled);
        // Key 2 neither waits behind key 1's compute nor joins its queue.
        match b.run(2, 20, far_deadline(), logged(&log2, doubled)) {
            BatchResult::Value(v) => assert_eq!(v, 40.0),
            _ => panic!("key 2 must compute at once"),
        }
        let member = queued_member(&b, 1, 11, &log1, 1);
        assert_eq!(b.queued(2), 0);
        release.send(()).unwrap();
        assert_eq!(value(leader), 20.0);
        assert_eq!(value(member), 22.0);
        assert_eq!(*log1.lock().unwrap(), vec![vec![10], vec![11]]);
        assert_eq!(*log2.lock().unwrap(), vec![vec![20]]);
    }

    #[test]
    fn expired_deadline_sheds_instead_of_hanging() {
        let b = Batcher::new(Duration::ZERO, 4);
        // A lone query computes at once and reads its own published
        // value without checking the clock, so a past deadline still
        // gets a Value; what is *not* acceptable is a hang.
        let past = Instant::now() - Duration::from_millis(1);
        let r = b.run(9, 0, past, |items| Ok(items.iter().map(|_| 1.0).collect()));
        assert!(matches!(r, BatchResult::Value(_) | BatchResult::Deadline));
    }
}
