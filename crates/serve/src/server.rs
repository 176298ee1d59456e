//! The server proper: the HTTP listener, the bounded accept queue,
//! worker threads, and the endpoint dispatch.
//!
//! Concurrency model: one accept thread pushes accepted connections
//! into a bounded queue; `threads` workers pop and serve one
//! connection at a time (keep-alive included). Overload is
//! explicit, never implicit: a connection arriving on a full queue is
//! answered with a typed 503 *at accept* and closed (`serve.shed`),
//! and a request that ages past the per-request deadline — in the
//! queue or inside a batch wait — is shed the same way. A connection
//! closed on a shed reply first has its request read (`close_shed`),
//! so the reply is not lost to a reset. Memory stays
//! bounded because the queue, the request body, the answer cache, the
//! escape-table store, and every batch are capped.
//!
//! This module is on the request path (SL005 hot-path scope): no
//! `unwrap`/`expect`; mutexes recover from poisoning via
//! `unwrap_or_else(|e| e.into_inner())`.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use socmix_obs::{Counter, Histogram, Span, Value};
use socmix_par::Pool;

use crate::batch::{BatchResult, Batcher};
use crate::cache::{answer_key, AnswerCache, TableCache, DEFAULT_CAP, TABLE_BUDGET};
use crate::catalog::{Catalog, LoadedGraph};
use crate::http::{self, ParseError, Request};
use crate::knobs::ServeConfig;
use crate::queries;

static REQUESTS: Counter = Counter::new("serve.requests");
static SHED: Counter = Counter::new("serve.shed");
static HTTP_CONNS: Counter = Counter::new("serve.http_conns");
static REQUEST_NS: Histogram = Histogram::new("serve.request_ns");

/// Query class discriminants folded into answer-cache, table and batch
/// keys so a `/mix` key can never collide with an `/escape` key for the
/// same graph.
const CLASS_MIX: u64 = 1;
const CLASS_ESCAPE: u64 = 2;

/// The typed overload body every shed path serves.
pub const SHED_BODY: &str = "{\"error\":\"overloaded\",\"shed\":true}";

/// How long an idle keep-alive connection may sit between requests
/// before the worker reclaims itself. Also the upper bound
/// [`Server::shutdown`] waits for an in-flight idle connection.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`close_shed`] waits, in all, for the request of a
/// connection it closes: the longest a shed connection can hold the
/// thread that shed it.
const SHED_LINGER: Duration = Duration::from_millis(250);

/// One rendered endpoint answer.
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl ApiResponse {
    fn ok(body: String) -> Self {
        ApiResponse { status: 200, body }
    }

    fn error(status: u16, message: &str) -> Self {
        ApiResponse {
            status,
            body: Value::Obj(vec![("error".to_string(), Value::Str(message.to_string()))])
                .to_compact(),
        }
    }

    fn shed() -> Self {
        SHED.incr();
        ApiResponse {
            status: 503,
            body: SHED_BODY.to_string(),
        }
    }
}

/// Standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Everything the endpoint handlers share.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub catalog: Catalog,
    pub answers: AnswerCache,
    pub tables: TableCache,
    pub batcher: Batcher,
    pub pool: Pool,
}

/// Merged view over query params and an optional JSON body, so a
/// query string and a JSON request body feed one extraction path.
struct Params<'a> {
    query: &'a [(String, String)],
    body: Option<Value>,
}

impl Params<'_> {
    fn new<'a>(query: &'a [(String, String)], body: &[u8]) -> Params<'a> {
        let body = if body.is_empty() {
            None
        } else {
            socmix_obs::parse(&String::from_utf8_lossy(body)).ok()
        };
        Params { query, body }
    }

    fn get_str(&self, key: &str) -> Option<String> {
        if let Some((_, v)) = self.query.iter().find(|(k, _)| k == key) {
            return Some(v.clone());
        }
        self.body
            .as_ref()
            .and_then(|b| b.get(key))
            .and_then(Value::as_str)
            .map(str::to_string)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        if let Some((_, v)) = self.query.iter().find(|(k, _)| k == key) {
            return v
                .parse::<f64>()
                .map_err(|_| format!("{key} must be a number, got {v:?}"));
        }
        match self.body.as_ref().and_then(|b| b.get(key)) {
            Some(v) => v.as_f64().ok_or_else(|| format!("{key} must be a number")),
            None => Ok(default),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        if let Some((_, v)) = self.query.iter().find(|(k, _)| k == key) {
            return v
                .parse::<u64>()
                .map_err(|_| format!("{key} must be a non-negative integer, got {v:?}"));
        }
        match self.body.as_ref().and_then(|b| b.get(key)) {
            Some(v) => match v.as_i64() {
                Some(n) if n >= 0 => Ok(n as u64),
                _ => Err(format!("{key} must be a non-negative integer")),
            },
            None => Ok(default),
        }
    }

    /// A list of node ids: JSON array in the body, or a
    /// comma-separated query value.
    fn get_u64_list(&self, key: &str) -> Result<Vec<u64>, String> {
        if let Some((_, v)) = self.query.iter().find(|(k, _)| k == key) {
            return v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("{key} entry {s:?} is not a node id"))
                })
                .collect();
        }
        match self.body.as_ref().and_then(|b| b.get(key)) {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|v| match v.as_i64() {
                    Some(n) if n >= 0 => Ok(n as u64),
                    _ => Err(format!("{key} entries must be non-negative integers")),
                })
                .collect(),
            Some(_) => Err(format!("{key} must be an array of node ids")),
            None => Ok(Vec::new()),
        }
    }
}

/// Looks up the resident graph or renders the 404 telling the caller
/// how to load it.
fn resident(shared: &Shared, p: &Params<'_>) -> Result<Arc<LoadedGraph>, ApiResponse> {
    let Some(slug) = p.get_str("graph") else {
        return Err(ApiResponse::error(400, "missing required parameter: graph"));
    };
    shared.catalog.get(&slug).ok_or_else(|| {
        ApiResponse::error(
            404,
            &format!("graph {slug:?} is not loaded; POST /load?graph={slug} first"),
        )
    })
}

/// Routes one request; the HTTP layer wraps the result in a status
/// line.
pub(crate) fn dispatch(
    shared: &Shared,
    method: &str,
    path: &str,
    query: &[(String, String)],
    body: &[u8],
    deadline: Instant,
) -> ApiResponse {
    REQUESTS.incr();
    let _span = Span::start(&REQUEST_NS);
    let p = Params::new(query, body);
    match (method, path) {
        ("GET", "/health") => ApiResponse::ok("{\"ok\":true}".to_string()),
        ("GET", "/metrics") => ApiResponse::ok(socmix_obs::snapshot().to_json().to_compact()),
        ("GET", "/trace") => {
            let events = socmix_obs::trace::drain();
            let labels = socmix_obs::trace::thread_labels();
            let rows =
                socmix_obs::export::chrome_events(&events, std::process::id() as u64, &labels);
            ApiResponse::ok(socmix_obs::export::chrome_trace_document(rows).to_compact())
        }
        ("GET", "/graphs") => {
            let rows: Vec<Value> = shared
                .catalog
                .list()
                .iter()
                .map(|lg| {
                    Value::Obj(vec![
                        ("graph".to_string(), Value::Str(lg.slug.clone())),
                        ("n".to_string(), Value::Int(lg.graph.num_nodes() as i64)),
                        ("edges".to_string(), Value::Int(lg.graph.num_edges() as i64)),
                        ("scale".to_string(), Value::Float(lg.scale)),
                        ("seed".to_string(), Value::Int(lg.seed as i64)),
                        ("key".to_string(), Value::Str(format!("{:016x}", lg.key))),
                    ])
                })
                .collect();
            ApiResponse::ok(Value::Arr(rows).to_compact())
        }
        ("GET", "/mix") => {
            let lg = match resident(shared, &p) {
                Ok(lg) => lg,
                Err(resp) => return resp,
            };
            let eps = match p.get_f64("eps", 0.25) {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            let key = answer_key(&[lg.key, eps.to_bits(), CLASS_MIX]);
            if let Some(body) = shared.answers.get(key) {
                return ApiResponse::ok(body.as_ref().clone());
            }
            match queries::mix(&lg, eps, shared.pool) {
                Ok(body) => {
                    shared.answers.put(key, Arc::new(body.clone()));
                    ApiResponse::ok(body)
                }
                Err(e) => ApiResponse::error(400, &e),
            }
        }
        ("GET", "/escape") => {
            let lg = match resident(shared, &p) {
                Ok(lg) => lg,
                Err(resp) => return resp,
            };
            let node = match p.get_u64("node", 0) {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            let w = match p.get_u64("w", 10) {
                Ok(v) => v as usize,
                Err(e) => return ApiResponse::error(400, &e),
            };
            if let Err(e) = queries::check_escape(&lg, &[node], w) {
                return ApiResponse::error(400, &e);
            }
            let key = answer_key(&[lg.key, w as u64, CLASS_ESCAPE]);
            let result = shared.batcher.run(key, node, deadline, |nodes| {
                escape_entries(shared, key, nodes, || {
                    queries::escape_table(&lg, w, shared.pool)
                })
            });
            match result {
                BatchResult::Value(prob) => {
                    ApiResponse::ok(queries::render_escape(&lg, node, w, prob))
                }
                BatchResult::Deadline => ApiResponse::shed(),
                BatchResult::Error(e) => ApiResponse::error(400, &e),
            }
        }
        ("POST", "/admit") => {
            let lg = match resident(shared, &p) {
                Ok(lg) => lg,
                Err(resp) => return resp,
            };
            let verifier = match p.get_u64("verifier", 0) {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            let suspects = match p.get_u64_list("suspects") {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            let w = match p.get_u64("w", 10) {
                Ok(v) => v as usize,
                Err(e) => return ApiResponse::error(400, &e),
            };
            match queries::admit(&lg, verifier, &suspects, w, shared.pool) {
                Ok(body) => ApiResponse::ok(body),
                Err(e) => ApiResponse::error(400, &e),
            }
        }
        ("POST", "/load") => {
            let Some(slug) = p.get_str("graph") else {
                return ApiResponse::error(400, "missing required parameter: graph");
            };
            let scale = match p.get_f64("scale", 0.1) {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            let seed = match p.get_u64("seed", 0) {
                Ok(v) => v,
                Err(e) => return ApiResponse::error(400, &e),
            };
            match shared.catalog.load(&slug, scale, seed) {
                Ok(lg) => ApiResponse::ok(
                    Value::Obj(vec![
                        ("graph".to_string(), Value::Str(lg.slug.clone())),
                        ("n".to_string(), Value::Int(lg.graph.num_nodes() as i64)),
                        ("edges".to_string(), Value::Int(lg.graph.num_edges() as i64)),
                        ("key".to_string(), Value::Str(format!("{:016x}", lg.key))),
                    ])
                    .to_compact(),
                ),
                Err(e) => ApiResponse::error(400, &e),
            }
        }
        ("POST", "/evict") => {
            let Some(slug) = p.get_str("graph") else {
                return ApiResponse::error(400, "missing required parameter: graph");
            };
            let evicted = shared.catalog.evict(&slug);
            ApiResponse::ok(
                Value::Obj(vec![("evicted".to_string(), Value::Bool(evicted))]).to_compact(),
            )
        }
        ("GET", _) | ("POST", _) => {
            ApiResponse::error(404, &format!("no such endpoint: {method} {path}"))
        }
        _ => ApiResponse::error(405, &format!("method {method} not supported")),
    }
}

/// An `/escape` batch's compute: its nodes' entries of the escape
/// table under `key`, made by `build` only when the store lacks it.
/// The batcher runs one compute per key at a time, so concurrent first
/// probes build the table once: the first builds it, and the rest form
/// the next batch and find it.
fn escape_entries(
    shared: &Shared,
    key: u64,
    nodes: &[u64],
    build: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<Vec<f64>, String> {
    let table = shared
        .tables
        .get_or_insert_with(key, || build().map(Arc::from))?;
    queries::entries(&table, nodes)
}

struct Conn {
    stream: TcpStream,
    arrived: Instant,
}

/// The bounded accept queue. `push` never blocks: a full queue is the
/// caller's signal to shed.
struct ConnQueue {
    inner: Mutex<VecDeque<Conn>>,
    cond: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            cap,
        }
    }

    /// Enqueues the connection, or hands it back when the queue is
    /// full so the acceptor can shed it with a typed reply.
    fn push(&self, conn: Conn) -> Result<(), Conn> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cap {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.cond.notify_one();
        Ok(())
    }

    /// Pops the next connection, waking periodically to check `stop`.
    fn pop(&self, stop: &AtomicBool) -> Option<Conn> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            // ORDERING: Acquire pairs with the Release store in
            // `shutdown` so a worker that observes the stop also sees
            // the state the shutting-down thread settled beforehand.
            if stop.load(Ordering::Acquire) {
                return None;
            }
            let (next, _) = self
                .cond
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            q = next;
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Server::shutdown) leaks the listener threads for the
/// remainder of the process — tests and the binary both shut down
/// explicitly.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, spawns the accept and worker threads, and
    /// returns. `cache_dir` backs the graph catalog.
    ///
    /// Turns the process-wide metrics gate on: a server without its
    /// `/metrics` surface is blind, and the gate is the workspace's
    /// one-atomic-load kind, so resident graphs pay nothing extra.
    pub fn start(
        cfg: ServeConfig,
        cache_dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Server> {
        socmix_obs::set_metrics_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            catalog: Catalog::at(cache_dir),
            answers: AnswerCache::new(DEFAULT_CAP),
            tables: TableCache::new(TABLE_BUDGET),
            batcher: Batcher::new(Duration::ZERO, cfg.batch_max),
            pool: Pool::new(),
            cfg,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(shared.cfg.queue));

        let mut threads = vec![spawn_acceptor(
            listener,
            Arc::clone(&queue),
            Arc::clone(&stop),
        )?];
        for i in 0..shared.cfg.threads {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue, &stop))
                    .map_err(std::io::Error::other)?,
            );
        }

        Ok(Server {
            addr,
            stop,
            threads,
        })
    }

    /// The HTTP listener's bound address (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        // ORDERING: Release pairs with the Acquire loads on the accept
        // and worker threads — everything this thread did before the
        // stop is visible to a thread that exits because of it.
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn spawn_acceptor(
    listener: TcpListener,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("serve-accept-http".to_string())
        .spawn(move || loop {
            let (stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    // ORDERING: Acquire pairs with the Release store in
                    // `shutdown` (see `ConnQueue::pop`).
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            // ORDERING: Acquire — same pairing; the wake-up connection
            // from `shutdown` lands here, after the store.
            if stop.load(Ordering::Acquire) {
                return;
            }
            let conn = Conn {
                stream,
                arrived: Instant::now(),
            };
            if let Err(mut rejected) = queue.push(conn) {
                // Queue full: shed at the door, cheaply, on the accept
                // thread — a typed reply, not a silent drop or an
                // unbounded backlog.
                SHED.incr();
                let _ = http::write_response(
                    &mut rejected.stream,
                    503,
                    reason(503),
                    "application/json",
                    SHED_BODY,
                    false,
                );
                close_shed(rejected.stream);
            }
        })
        .map_err(std::io::Error::other)
}

/// Closes a connection after its shed reply without resetting it.
///
/// A socket closed with request bytes unread, or with some still in
/// flight, answers with a reset, and the client can lose the reply it
/// has not read yet. So the write half is shut first (the client reads
/// the reply, then EOF), and the one request the client sends is read
/// and dropped before the close: at most the head cap plus the declared
/// body, within [`SHED_LINGER`], with memory bounded as in
/// [`http::read_request`].
fn close_shed(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut r = BufReader::new(Lingering {
        stream,
        until: Instant::now() + SHED_LINGER,
    });
    let _ = http::read_request(&mut r);
}

/// A socket whose reads share one deadline, however many there are.
struct Lingering {
    stream: TcpStream,
    until: Instant,
}

impl Read for Lingering {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn worker_loop(shared: &Shared, queue: &ConnQueue, stop: &AtomicBool) {
    while let Some(conn) = queue.pop(stop) {
        serve_http_conn(shared, conn.stream, conn.arrived);
    }
}

/// Serves one HTTP connection (keep-alive loop) to completion.
fn serve_http_conn(shared: &Shared, stream: TcpStream, arrived: Instant) {
    HTTP_CONNS.incr();
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => BufWriter::new(s),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    // Shed without serving if the connection already aged past the
    // deadline while queued.
    if arrived.elapsed() > shared.cfg.deadline {
        let resp = ApiResponse::shed();
        let _ = http::write_response(
            &mut writer,
            resp.status,
            reason(resp.status),
            "application/json",
            &resp.body,
            false,
        );
        close_shed(reader.into_inner());
        return;
    }

    let mut first = true;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::Bad(msg)) => {
                let resp = ApiResponse::error(400, &msg);
                let _ = http::write_response(
                    &mut writer,
                    resp.status,
                    reason(resp.status),
                    "application/json",
                    &resp.body,
                    false,
                );
                return;
            }
            Err(ParseError::Io(_)) => return,
        };
        // The first request inherits the queue wait against its
        // deadline; later keep-alive requests start their clock at
        // read completion.
        let deadline = if first {
            arrived + shared.cfg.deadline
        } else {
            Instant::now() + shared.cfg.deadline
        };
        first = false;
        let resp = respond(shared, &req, deadline);
        let keep = req.keep_alive && resp.status != 503;
        if http::write_response(
            &mut writer,
            resp.status,
            reason(resp.status),
            "application/json",
            &resp.body,
            keep,
        )
        .is_err()
            || !keep
        {
            return;
        }
    }
}

fn respond(shared: &Shared, req: &Request, deadline: Instant) -> ApiResponse {
    if Instant::now() > deadline {
        return ApiResponse::shed();
    }
    dispatch(
        shared,
        &req.method,
        &req.path,
        &req.query,
        &req.body,
        deadline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn invalid_escape_fails_alone_beside_a_queued_valid_one() {
        let dir =
            std::env::temp_dir().join(format!("socmix-serve-dispatch-{}", std::process::id()));
        let shared = Shared {
            cfg: ServeConfig::default(),
            catalog: Catalog::at(&dir),
            answers: AnswerCache::new(DEFAULT_CAP),
            tables: TableCache::new(TABLE_BUDGET),
            batcher: Batcher::new(Duration::ZERO, 64),
            pool: Pool::serial(),
        };
        let lg = shared
            .catalog
            .load("wiki-vote", 0.02, 3)
            .expect("tiny graph");
        let w = 8;
        let key = answer_key(&[lg.key, w as u64, CLASS_ESCAPE]);
        let far = Instant::now() + Duration::from_secs(30);
        let query = |node: u64| {
            vec![
                ("graph".to_string(), "wiki-vote".to_string()),
                ("node".to_string(), node.to_string()),
                ("w".to_string(), w.to_string()),
            ]
        };
        std::thread::scope(|s| {
            // Made inside the scope so that a failed assertion drops
            // `release` and unblocks the compute instead of hanging.
            let (started_tx, started) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            // A compute held open on the key, so later queries queue
            // into one next batch.
            let shared = &shared;
            let blocker = s.spawn(move || {
                shared.batcher.run(key, 1, far, |items| {
                    started_tx.send(()).unwrap();
                    released.recv().unwrap();
                    Ok(vec![0.0; items.len()])
                })
            });
            started.recv().unwrap();
            let valid = s.spawn(|| dispatch(shared, "GET", "/escape", &query(0), b"", far));
            while shared.batcher.queued(key) < 1 {
                std::thread::yield_now();
            }
            // Answered at once, before the batch it would have joined
            // runs, with its own node in the message.
            let bad = dispatch(shared, "GET", "/escape", &query(999_999), b"", far);
            assert_eq!(bad.status, 400, "{}", bad.body);
            assert!(bad.body.contains("node 999999 "), "{}", bad.body);
            assert_eq!(shared.batcher.queued(key), 1, "the bad query never queued");
            release.send(()).unwrap();
            let valid = valid.join().unwrap();
            let solo = queries::escape_batch(&lg, &[0], w, Pool::serial()).unwrap()[0];
            assert_eq!(valid.status, 200, "{}", valid.body);
            assert_eq!(valid.body, queries::render_escape(&lg, 0, w, solo));
            assert!(matches!(blocker.join().unwrap(), BatchResult::Value(_)));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A server's shared state over the tiny graph, in its own
    /// directory, with the graph loaded.
    fn loaded(tag: &str) -> (Shared, Arc<LoadedGraph>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("socmix-serve-{tag}-{}", std::process::id()));
        let shared = Shared {
            cfg: ServeConfig::default(),
            catalog: Catalog::at(&dir),
            answers: AnswerCache::new(DEFAULT_CAP),
            tables: TableCache::new(TABLE_BUDGET),
            batcher: Batcher::new(Duration::ZERO, 64),
            pool: Pool::serial(),
        };
        let lg = shared
            .catalog
            .load("wiki-vote", 0.02, 3)
            .expect("tiny graph");
        (shared, lg, dir)
    }

    fn escape_query(node: u64, w: usize) -> Vec<(String, String)> {
        vec![
            ("graph".to_string(), "wiki-vote".to_string()),
            ("node".to_string(), node.to_string()),
            ("w".to_string(), w.to_string()),
        ]
    }

    /// The body `/escape` must serve, from a direct query.
    fn expected(lg: &LoadedGraph, node: u64, w: usize) -> String {
        let prob = queries::escape_batch(lg, &[node], w, Pool::serial()).unwrap()[0];
        queries::render_escape(lg, node, w, prob)
    }

    #[test]
    fn a_second_escape_on_the_same_graph_and_w_builds_nothing() {
        let (shared, lg, dir) = loaded("table-reuse");
        let far = Instant::now() + Duration::from_secs(30);
        for (node, w, builds) in [(0, 8, 1), (5, 8, 1), (0, 8, 1), (5, 9, 2), (7, 8, 2)] {
            let resp = dispatch(&shared, "GET", "/escape", &escape_query(node, w), b"", far);
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(resp.body, expected(&lg, node, w), "node {node} w={w}");
            assert_eq!(shared.tables.misses(), builds, "node {node} w={w}");
        }
        assert_eq!(shared.tables.len(), 2, "one table per (graph, w)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_escapes_queued_behind_a_blocked_build_share_one_build() {
        let (shared, lg, dir) = loaded("table-once");
        let w = 8;
        let key = answer_key(&[lg.key, w as u64, CLASS_ESCAPE]);
        let far = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|s| {
            let (started_tx, started) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            let (shared, lg) = (&shared, &lg);
            // The first probe's build, held open until the second probe
            // has queued behind it.
            let first = s.spawn(move || {
                shared.batcher.run(key, 1, far, |nodes| {
                    escape_entries(shared, key, nodes, || {
                        started_tx.send(()).unwrap();
                        released.recv().unwrap();
                        queries::escape_table(lg, w, Pool::serial())
                    })
                })
            });
            started.recv().unwrap();
            let second =
                s.spawn(|| dispatch(shared, "GET", "/escape", &escape_query(0, w), b"", far));
            while shared.batcher.queued(key) < 1 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            let second = second.join().unwrap();
            assert_eq!(second.status, 200, "{}", second.body);
            assert_eq!(second.body, expected(lg, 0, w));
            let want = queries::escape_batch(lg, &[1], w, Pool::serial()).unwrap()[0];
            match first.join().unwrap() {
                BatchResult::Value(v) => assert_eq!(v.to_bits(), want.to_bits()),
                _ => panic!("the first probe must get its value"),
            }
        });
        assert_eq!(
            shared.tables.misses(),
            1,
            "the queued probe found the table"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
