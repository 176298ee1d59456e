//! `serve_open` and `serve_closed`: mixed HTTP traffic against an
//! in-process `Server` on Wiki-vote at scale 0.05.
//!
//! Most requests are `/escape` at two walk lengths; the rest are
//! `/mix` (answer-cache hits after an untimed warm-up) and `/admit`
//! (SybilLimit over 32 suspects). `serve_open` sends on a seeded
//! Poisson schedule well below capacity over at most two connections
//! and times each request from its due time; `serve_closed` keeps two
//! connections busy, each sending its next request when the previous
//! answer arrives, and times each request from when it was sent.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use socmix_gen::{Dataset, GraphCache};
use socmix_linalg::{MultiLinearOp, MultiVec, WalkOp};
use socmix_par::Pool;
use socmix_serve::batch::{BatchResult, Batcher};
use socmix_serve::{http, queries, Catalog, LoadedGraph, ServeConfig, Server};
use socmix_sybil::{SybilLimit, SybilLimitParams};

use crate::calib::{normalise, Calibration};
use crate::stats::{median, ms, quantile, us};
use crate::trace::{layer_sum_check, merge, SpanRec, Tracer};
use crate::{mix_seed, peak_rss_mb, run_for, Report, RunCfg};

/// Which client drives the traffic.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Open,
    Closed,
}

const DATASET: Dataset = Dataset::WikiVote;
const SLUG: &str = "wiki-vote";
const SCALE: f64 = 0.05;
/// Set-ups before the traffic, and as many after it.
const SETUPS_EACH_SIDE: usize = 6;
/// Client connections (the machine's core count).
const CONNS: usize = 2;
/// Open-loop arrival rate, requests per second: well below the
/// ~1,300 requests per second two closed-loop connections sustain, so
/// queueing stays small (at 200 per second the p99 already doubles).
const RATE: f64 = 100.0;
/// Fewest timed requests per run, so ten lie beyond the p99.
const MIN_REQUESTS: usize = 1000;
/// An untraced run's traffic runs in one-second phases with the
/// calibration kernel timed before each.
const PHASE: Duration = Duration::from_secs(1);
/// Idle time before each kernel timing, so the server's threads have
/// finished with the previous phase's connections.
const SETTLE: Duration = Duration::from_millis(10);
/// `/escape` walk lengths; each is its own batch key.
const WALKS: [usize; 2] = [16, 32];
/// `/admit` walk length and suspect count.
const ADMIT_W: usize = 10;
const SUSPECTS: usize = 32;
/// `/mix` accuracies.
const EPS: [f64; 2] = [0.25, 0.1];
const ESCAPE_TEMPLATES: usize = 96;
const ADMIT_TEMPLATES: usize = 48;
/// Share of `/escape` and of `/mix` in the traffic; `/admit` is the
/// rest. The 60/20/20 mix is the one whose open-loop median was
/// measured to repeat (1.82–1.89 ms over three runs at 100/s).
const ESCAPE_SHARE: f64 = 0.6;
const MIX_SHARE: f64 = 0.2;
/// Untimed requests before measuring.
const WARMUP: usize = 200;
/// Tolerance of the layer-sum check: the residual no layer explains
/// (transport, HTTP framing and thread wake-ups, which no instrument
/// of the server sees) may be a third of the request time. On a shared
/// 2-vCPU machine it was 5–18% of it; when other guests contend for
/// the CPUs, wake-ups grow first.
const SERVE_TOL: f64 = 1.0 / 3.0;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Endpoint {
    Escape,
    Mix,
    Admit,
}

/// One distinct request's arguments.
enum Query {
    Escape { node: u64, w: usize },
    Mix { eps: f64 },
    Admit { verifier: u64, suspects: Vec<u64> },
}

/// One distinct request and the body it must get back.
struct Template {
    query: Query,
    raw: Vec<u8>,
    expected: String,
}

impl Template {
    fn endpoint(&self) -> Endpoint {
        match self.query {
            Query::Escape { .. } => Endpoint::Escape,
            Query::Mix { .. } => Endpoint::Mix,
            Query::Admit { .. } => Endpoint::Admit,
        }
    }
}

/// What one timed request saw.
struct Sample {
    /// Position in the run's request sequence; the trace's operation id.
    index: u64,
    endpoint: Endpoint,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
    outcome: Result<(), String>,
    shed: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request; returns the status, the body, and when the
    /// request was written and the first response byte arrived.
    fn request(&mut self, raw: &[u8]) -> io::Result<(u16, String, Instant, Instant)> {
        self.writer.write_all(raw)?;
        let written = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let first_byte = Instant::now();
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, line.clone()))?;
        let mut length = 0;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8_lossy(&body).into_owned(),
            written,
            first_byte,
        ))
    }
}

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: mixbench\r\n\r\n").into_bytes()
}

fn post(target: &str, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {target} HTTP/1.1\r\nHost: mixbench\r\nContent-Type: application/json\r\n\
         {connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The distinct requests of a run and their expected bodies, computed
/// by calling the query functions directly on an identical graph.
fn templates(lg: &LoadedGraph, seed: u64) -> Result<Vec<Template>, String> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x7e3a));
    let honest = lg.attacked.honest as u64;
    let total = lg.attacked.graph.num_nodes() as u64;
    let mut out = Vec::new();
    for i in 0..ESCAPE_TEMPLATES {
        let node = rng.random_range(0..honest);
        let w = WALKS[i % WALKS.len()];
        let prob = queries::escape_batch(lg, &[node], w, Pool::serial())?[0];
        out.push(Template {
            query: Query::Escape { node, w },
            raw: get(&format!("/escape?graph={SLUG}&node={node}&w={w}")),
            expected: queries::render_escape(lg, node, w, prob),
        });
    }
    for eps in EPS {
        out.push(Template {
            query: Query::Mix { eps },
            raw: get(&format!("/mix?graph={SLUG}&eps={eps}")),
            expected: queries::mix(lg, eps, Pool::serial())?,
        });
    }
    for _ in 0..ADMIT_TEMPLATES {
        let verifier = rng.random_range(0..honest);
        let suspects: Vec<u64> = (0..SUSPECTS).map(|_| rng.random_range(0..total)).collect();
        let list: Vec<String> = suspects.iter().map(u64::to_string).collect();
        let body = format!(
            "{{\"graph\":\"{SLUG}\",\"verifier\":{verifier},\"w\":{ADMIT_W},\"suspects\":[{}]}}",
            list.join(",")
        );
        let expected = queries::admit(lg, verifier, &suspects, ADMIT_W, Pool::serial())?;
        out.push(Template {
            query: Query::Admit { verifier, suspects },
            raw: post("/admit", &body, false),
            expected,
        });
    }
    Ok(out)
}

/// Template indices of a request sequence in the traffic mix: each
/// endpoint's exact share of `len`, with seeded templates, shuffled.
fn sequence(templates: &[Template], len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let escapes = (len as f64 * ESCAPE_SHARE).round() as usize;
    let mixes = (len as f64 * MIX_SHARE).round() as usize;
    let counts = [
        (Endpoint::Escape, escapes),
        (Endpoint::Mix, mixes),
        (Endpoint::Admit, len.saturating_sub(escapes + mixes)),
    ];
    let mut seq = Vec::with_capacity(len);
    for (endpoint, count) in counts {
        let of: Vec<usize> = (0..templates.len())
            .filter(|&i| templates[i].endpoint() == endpoint)
            .collect();
        seq.extend((0..count).map(|_| of[rng.random_range(0..of.len())]));
    }
    seq.shuffle(&mut rng);
    seq
}

/// Seeded Poisson arrivals: `len` offsets in `[0, span)`. Given its
/// count, a Poisson process's arrival times are sorted uniform draws,
/// so every run offers the same load over the same span.
fn schedule(len: usize, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<f64> = (0..len).map(|_| rng.random::<f64>()).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(|u| span.mul_f64(u)).collect()
}

fn check(t: &Template, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{:?} returned {status}: {body}", t.endpoint()));
    }
    if body != t.expected {
        return Err(format!(
            "{:?} body differs from the direct query: got {body}, want {}",
            t.endpoint(),
            t.expected
        ));
    }
    Ok(())
}

/// Sends one request and records what it saw.
fn send(client: &mut Client, t: &Template, index: u64, due: Instant, deadline: Duration) -> Sample {
    let sent = Instant::now();
    let (outcome, shed, written, first_byte) = match client.request(&t.raw) {
        Ok((status, body, written, first)) => {
            (check(t, status, &body), status == 503, written, first)
        }
        Err(e) => {
            let now = Instant::now();
            (
                Err(format!("{:?} request failed: {e}", t.endpoint())),
                false,
                now,
                now,
            )
        }
    };
    let done = Instant::now();
    let outcome = match outcome {
        Ok(()) if done - due > deadline => Err(format!(
            "{:?} took {:.1} ms, past the {deadline:?} deadline",
            t.endpoint(),
            ms(done - due)
        )),
        other => other,
    };
    Sample {
        index,
        endpoint: t.endpoint(),
        due,
        sent,
        written,
        first_byte,
        done,
        outcome,
        shed,
    }
}

/// Runs one timed traffic phase and returns its samples in the order
/// they completed per connection, and the phase's wall time.
fn traffic(
    addr: SocketAddr,
    templates: &[Template],
    mode: Loop,
    seconds: Duration,
    min_requests: usize,
    seed: u64,
    traced: bool,
) -> Result<(Vec<Sample>, Duration, Vec<SpanRec>), String> {
    let deadline = server_config().deadline;
    let (count, span) = match mode {
        Loop::Open => {
            let count = ((RATE * seconds.as_secs_f64()) as usize).max(min_requests);
            (count, Duration::from_secs_f64(count as f64 / RATE))
        }
        // Enough for the capacity of two connections; the sequence
        // wraps if a fast machine runs past it.
        Loop::Closed => ((2000.0 * seconds.as_secs_f64()) as usize, seconds),
    };
    let seq = sequence(templates, count, mix_seed(seed, 0x5e9));
    let offsets = schedule(count, span, mix_seed(seed, 0xa771));
    let mut clients = (0..CONNS)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + seconds;
    let per_conn: Vec<(Vec<Sample>, Vec<SpanRec>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let (next, seq, offsets) = (&next, &seq, &offsets);
                s.spawn(move || {
                    let tracer = Tracer::new(start, thread);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match mode {
                            Loop::Open => match offsets.get(i) {
                                Some(off) => start + *off,
                                None => break,
                            },
                            Loop::Closed => {
                                let now = Instant::now();
                                if now >= end && i >= min_requests {
                                    break;
                                }
                                now.max(start)
                            }
                        };
                        sleep_until(due);
                        let t = &templates[seq[i % seq.len()]];
                        let sample = send(client, t, i as u64, due, deadline);
                        if traced {
                            record_spans(&tracer, mode, &sample);
                        }
                        out.push(sample);
                    }
                    (out, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (samples, spans): (Vec<Vec<Sample>>, Vec<Vec<SpanRec>>) = per_conn.into_iter().unzip();
    let samples: Vec<Sample> = samples.into_iter().flatten().collect();
    let last = samples.iter().map(|s| s.done).max().unwrap_or(start);
    Ok((samples, last.saturating_duration_since(start), merge(spans)))
}

/// Records one request's client-side spans. The root runs from the
/// due time (open loop) or the send (closed loop) to the answer's last
/// byte; `serve.server` is the time from the written request to the
/// first byte of the answer.
fn record_spans(tracer: &Tracer, mode: Loop, s: &Sample) {
    tracer.set_op(s.index);
    let root = Some(tracer.record("serve.request", s.due, s.done, None));
    if mode == Loop::Open {
        tracer.record("bench.send_late", s.due, s.sent, root);
    }
    tracer.record("bench.write", s.sent, s.written, root);
    tracer.record("serve.server", s.written, s.first_byte, root);
    tracer.record("bench.read", s.first_byte, s.done, root);
}

/// Sleeps until `t` (paces open-loop arrivals).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Per-run scratch directory for the servers' graph caches.
fn work_dir(seed: u64) -> PathBuf {
    Path::new("mixbench")
        .join("out")
        .join(format!("serve-{}-{seed}", std::process::id()))
}

fn server_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// `Server::start` plus `POST /load` against an empty cache directory.
fn start_and_load(dir: &Path, gseed: u64) -> Result<(Server, Duration), String> {
    let t = Instant::now();
    let server = Server::start(server_config(), dir).map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let load = post(
        &format!("/load?graph={SLUG}&scale={SCALE}&seed={gseed}"),
        "",
        true,
    );
    let (status, body, _, _) = client.request(&load).map_err(|e| format!("load: {e}"))?;
    let took = t.elapsed();
    drop(client);
    if status != 200 {
        server.shutdown();
        return Err(format!("POST /load returned {status}: {body}"));
    }
    Ok((server, took))
}

pub fn run(cfg: &RunCfg, mode: Loop) -> Result<Report, String> {
    let dir = work_dir(cfg.seed);
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(cfg, mode, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(cfg: &RunCfg, mode: Loop, dir: &Path) -> Result<Report, String> {
    let gseed = cfg.seed;
    let mut rep = Report::default();
    let mut cal = Calibration::new();
    let mut setup_s = Vec::new();
    let mut setup_kernel_ms = Vec::new();
    let mut server: Option<Server> = None;
    for r in 0..SETUPS_EACH_SIDE {
        std::thread::sleep(SETTLE);
        setup_kernel_ms.push(cal.time_ms());
        let started = start_and_load(&dir.join(format!("cache-{r}")), gseed);
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let (s, took) = started?;
        setup_s.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let outcome = drive(cfg, mode, dir, &server, &mut cal, &mut rep);
    server.shutdown();
    outcome?;
    // As many set-ups again after the traffic, so the median covers
    // the run's whole stretch of machine time.
    for r in SETUPS_EACH_SIDE..2 * SETUPS_EACH_SIDE {
        std::thread::sleep(SETTLE);
        setup_kernel_ms.push(cal.time_ms());
        let (s, took) = start_and_load(&dir.join(format!("cache-{r}")), gseed)?;
        setup_s.push(took.as_secs_f64());
        s.shutdown();
    }
    if !cfg.trace {
        let (setup, kernel, n) = (median(&setup_s), median(&setup_kernel_ms), setup_s.len());
        rep.metric("setup_s", normalise(setup, kernel), "s", n);
        rep.metric("setup_raw_s", setup, "s", n);
    }
    Ok(rep)
}

fn drive(
    cfg: &RunCfg,
    mode: Loop,
    dir: &Path,
    server: &Server,
    cal: &mut Calibration,
    rep: &mut Report,
) -> Result<(), String> {
    let gseed = cfg.seed;
    let lg = Catalog::at(dir.join("reference")).load(SLUG, SCALE, gseed)?;
    rep.notes.push(format!(
        "{} at scale {SCALE}, graph seed {gseed}: {} honest + {} Sybil nodes",
        DATASET.name(),
        lg.attacked.honest,
        lg.attacked.graph.num_nodes() - lg.attacked.honest
    ));
    let templates = templates(&lg, cfg.seed)?;
    let deadline = server_config().deadline;
    let addr = server.local_addr();

    // Untimed warm-up: every template once (the `/mix` answers enter
    // the cache), then a short closed-loop burst.
    {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (i, t) in templates.iter().enumerate() {
            send(&mut client, t, 0, Instant::now(), deadline)
                .outcome
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
        }
        let seq = sequence(&templates, WARMUP, mix_seed(cfg.seed, 0x3a9));
        for i in seq {
            send(&mut client, &templates[i], 0, Instant::now(), deadline)
                .outcome
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }

    if cfg.trace {
        return traced(cfg, mode, &lg, &templates, addr, rep);
    }

    // Each phase's request times, and whether each was an `/escape`.
    let mut phase_lat: Vec<Vec<(f64, bool)>> = Vec::new();
    let mut kernels = Vec::new();
    let mut wall = Duration::ZERO;
    let phases = cfg.seconds / PHASE.as_secs();
    for phase in 0..phases {
        std::thread::sleep(SETTLE);
        kernels.push(cal.time_ms());
        let (samples, took, _) = traffic(
            addr,
            &templates,
            mode,
            PHASE,
            MIN_REQUESTS.div_ceil(phases as usize),
            mix_seed(cfg.seed, phase),
            false,
        )?;
        wall += took;
        phase_lat.push(
            samples
                .iter()
                .map(|s| (s.latency_ms(), s.endpoint == Endpoint::Escape))
                .collect(),
        );
        for s in samples {
            rep.outcome(s.outcome);
        }
    }
    // One factor for the run: a single kernel timing is noisier than
    // the host's drift over one run. A lone `/escape` waits out the
    // batch window, a fixed time that does not slow with the host, so
    // only the rest of it is normalised.
    let kernel = median(&kernels);
    let window = ms(server_config().batch_window);
    let norm = |&(l, escape): &(f64, bool)| {
        let fixed = if escape { window.min(l) } else { 0.0 };
        fixed + normalise(l - fixed, kernel)
    };
    let raw = |&(l, _): &(f64, bool)| l;
    // Each phase opens its connections afresh, and on one run the
    // phases' medians fell near either 1.7 or 2.05 ms. The mean of the
    // phases' medians moves in proportion to how many fall near each;
    // the median of all requests jumps between the two.
    let mean_of_medians = |f: &dyn Fn(&(f64, bool)) -> f64| {
        let medians: Vec<f64> = phase_lat
            .iter()
            .map(|p| median(&p.iter().map(f).collect::<Vec<_>>()))
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    };
    let all: Vec<(f64, bool)> = phase_lat.concat();
    let n = all.len();
    rep.metric("latency_ms", mean_of_medians(&norm), "ms", n);
    let norm_all: Vec<f64> = all.iter().map(norm).collect();
    rep.metric("latency_p99_ms", quantile(&norm_all, 0.99), "ms", n);
    if mode == Loop::Closed {
        rep.metric("throughput_qps", n as f64 / wall.as_secs_f64(), "1/s", n);
    }
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.metric("latency_raw_ms", mean_of_medians(&raw), "ms", n);
    rep.metric("calib_kernel_ms", kernel, "ms", kernels.len());
    Ok(())
}

/// A counter's total in the process's `socmix-obs` registry.
fn counter(name: &str) -> f64 {
    socmix_obs::snapshot().counter(name).unwrap_or(0) as f64
}

/// Median time of `f`, in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&times)
}

fn traced(
    cfg: &RunCfg,
    mode: Loop,
    lg: &LoadedGraph,
    templates: &[Template],
    addr: SocketAddr,
    rep: &mut Report,
) -> Result<(), String> {
    let half = run_for(cfg) / 2;
    let min = MIN_REQUESTS / 2;
    // An untraced phase, then a traced one on the same server: the
    // difference is what recording the spans costs.
    let (untraced, _, _) = traffic(addr, templates, mode, half, min, cfg.seed, false)?;
    let before = socmix_obs::snapshot();
    let (samples, _, spans) = traffic(
        addr,
        templates,
        mode,
        half,
        min,
        mix_seed(cfg.seed, 1),
        true,
    )?;
    let after = socmix_obs::snapshot();
    let delta =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    // The server's own time per request, from its existing histogram.
    let request_ns =
        |s: &socmix_obs::MetricsSnapshot| s.hist("serve.request_ns").map_or(0, |h| h.sum);
    let dispatch_ms = (request_ns(&after) - request_ns(&before)) as f64 / 1e6;
    for s in untraced.iter().chain(&samples) {
        rep.outcome(s.outcome.clone());
    }

    let n = samples.len() as f64;
    let by = |e: Endpoint, v: &[Sample]| -> Vec<f64> {
        v.iter()
            .filter(|s| s.endpoint == e)
            .map(Sample::latency_ms)
            .collect()
    };
    let escape = by(Endpoint::Escape, &samples);
    let mix = by(Endpoint::Mix, &samples);
    let admit = by(Endpoint::Admit, &samples);
    rep.metric("serve.escape_ms", median(&escape), "ms", escape.len());
    rep.metric("serve.mix_ms", median(&mix), "ms", mix.len());
    rep.metric("serve.admit_ms", median(&admit), "ms", admit.len());

    // Compute on the same graph, called directly with the server's pool.
    let pool = Pool::new();
    let escapes: Vec<(u64, usize)> = templates
        .iter()
        .filter_map(|t| match t.query {
            Query::Escape { node, w } => Some((node, w)),
            _ => None,
        })
        .collect();
    let admits: Vec<(u64, &[u64])> = templates
        .iter()
        .filter_map(|t| match &t.query {
            Query::Admit { verifier, suspects } => Some((*verifier, suspects.as_slice())),
            _ => None,
        })
        .collect();
    let mut k = 0;
    let compute_escape = time_us(200, || {
        let (node, w) = escapes[k % escapes.len()];
        k += 1;
        black_box(queries::escape_batch(lg, &[node], w, pool).ok());
    }) / 1e3;
    let mixes: Vec<f64> = templates
        .iter()
        .filter_map(|t| match t.query {
            Query::Mix { eps } => Some(eps),
            _ => None,
        })
        .collect();
    let mut k = 0;
    let compute_mix = time_us(10, || {
        black_box(queries::mix(lg, mixes[k % mixes.len()], pool).ok());
        k += 1;
    }) / 1e3;
    let mut k = 0;
    let compute_admit = time_us(48, || {
        let (v, s) = admits[k % admits.len()];
        k += 1;
        black_box(queries::admit(lg, v, s, ADMIT_W, pool).ok());
    }) / 1e3;
    rep.metric("serve.compute_escape_ms", compute_escape, "ms", 200);
    rep.metric("serve.compute_mix_ms", compute_mix, "ms", 10);
    rep.metric("serve.compute_admit_ms", compute_admit, "ms", 48);
    rep.metric(
        "serve.overhead_ms",
        median(&escape) - compute_escape,
        "ms",
        escape.len(),
    );
    rep.metric(
        "serve.overhead_admit_ms",
        median(&admit) - compute_admit,
        "ms",
        admit.len(),
    );

    // SybilLimit alone, as `queries::admit` configures it.
    let walks_before = counter("sybil.walks");
    let mut k = 0;
    let verify = time_us(48, || {
        let (v, s) = admits[k % admits.len()];
        k += 1;
        let params = SybilLimitParams {
            w: ADMIT_W,
            seed: lg.key,
            ..SybilLimitParams::default()
        };
        let nodes: Vec<u32> = s.iter().map(|&x| x as u32).collect();
        black_box(
            SybilLimit::new(&lg.attacked.graph, params)
                .pool(pool)
                .verify_all(v as u32, &nodes),
        );
    }) / 1e3;
    let walks = (counter("sybil.walks") - walks_before) / 48.0;
    rep.metric("sybil.verify_ms", verify, "ms", 48);
    rep.metric("sybil.walks", walks, "count", 48);

    // One escape step on the served attacked graph.
    let g = &lg.attacked.graph;
    let step_us = |pool: Pool, width: usize| {
        let op = WalkOp::with_pool(g, pool);
        let mut x = MultiVec::zeros(g.num_nodes(), width);
        let mut y = MultiVec::zeros(g.num_nodes(), width);
        for c in 0..width {
            x.set(c, c, 1.0);
        }
        op.apply_multi(&x, &mut y, width);
        time_us(400, || {
            op.apply_multi(black_box(&x), &mut y, width);
            black_box(&y);
        })
    };
    let step1 = step_us(pool, 1);
    rep.metric("linalg.escape_step_us", step1, "us", 400);
    rep.metric("linalg.escape_step_w2_us", step_us(pool, 2), "us", 400);
    let serial = step_us(Pool::serial(), 1);
    rep.metric("par.serial_ms", serial / 1e3, "ms", 400);
    rep.metric("par.pool_ms", step1 / 1e3, "ms", 400);
    rep.metric("par.pool_speedup", serial / step1, "ratio", 400);
    rep.metric(
        "par.jobs_dispatched",
        delta("par.jobs.dispatched") / n,
        "count",
        samples.len(),
    );
    rep.metric(
        "par.jobs_inline",
        delta("par.jobs.inline") / n,
        "count",
        samples.len(),
    );
    rep.metric(
        "par.worker_wakes",
        delta("par.worker.wakes") / n,
        "count",
        samples.len(),
    );

    // The batch window a lone `/escape` pays.
    let cfg_serve = server_config();
    let batcher = Batcher::new(cfg_serve.batch_window, cfg_serve.batch_max);
    let batch_wait = time_us(40, || {
        let far = Instant::now() + Duration::from_secs(10);
        let r = batcher.run(7, 0, far, |items| Ok(vec![0.0; items.len()]));
        black_box(matches!(r, BatchResult::Value(_)));
    });
    rep.metric("serve.batch_wait_us", batch_wait, "us", 40);
    rep.metric(
        "serve.batch_width_mean",
        delta("serve.batched_queries") / delta("serve.batches"),
        "count",
        delta("serve.batches") as usize,
    );
    let hits = delta("serve.cache.hit");
    rep.metric(
        "serve.cache_hit_frac",
        hits / (hits + delta("serve.cache.miss")),
        "fraction",
        (hits + delta("serve.cache.miss")) as usize,
    );
    let shed = samples.iter().filter(|s| s.shed).count() as f64;
    rep.metric("serve.shed_frac", shed / n, "fraction", samples.len());

    // HTTP framing on the workload's own bytes, in its traffic mix.
    let seq = sequence(templates, 2000, mix_seed(cfg.seed, 0x9a7));
    let mut k = 0;
    let parse = time_us(seq.len(), || {
        let raw = &templates[seq[k]].raw;
        k += 1;
        black_box(http::read_request(&mut io::Cursor::new(raw.as_slice())).is_ok());
    });
    let mut sink = Vec::with_capacity(1 << 16);
    let mut k = 0;
    let write = time_us(seq.len(), || {
        sink.clear();
        let body = &templates[seq[k]].expected;
        k += 1;
        black_box(
            http::write_response(&mut sink, 200, "OK", "application/json", body, true).is_ok(),
        );
    });
    rep.metric("serve.http_parse_us", parse, "us", seq.len());
    rep.metric("serve.http_write_us", write, "us", seq.len());

    // Set-up layers, each on an empty directory.
    let dir = work_dir(cfg.seed).join("layers");
    let mut miss = Vec::new();
    let mut load = Vec::new();
    for r in 0..5 {
        let t = Instant::now();
        black_box(
            GraphCache::at(dir.join(format!("gen-{r}"))).load_or_generate(DATASET, SCALE, cfg.seed),
        );
        miss.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(Catalog::at(dir.join(format!("cat-{r}"))).load(SLUG, SCALE, cfg.seed)?);
        load.push(ms(t.elapsed()));
    }
    rep.metric("gen.cache_miss_ms", median(&miss), "ms", miss.len());
    rep.metric("serve.load_ms", median(&load), "ms", load.len());

    if mode == Loop::Open {
        let late: Vec<f64> = samples.iter().map(|s| ms(s.sent - s.due)).collect();
        rep.metric(
            "bench.send_late_p99_ms",
            quantile(&late, 0.99),
            "ms",
            late.len(),
        );
    }
    let traced_lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let untraced_lat: Vec<f64> = untraced.iter().map(Sample::latency_ms).collect();
    rep.metric(
        "obs.trace_overhead_frac",
        median(&traced_lat) / median(&untraced_lat) - 1.0,
        "fraction",
        samples.len(),
    );
    rep.metric("serve.dispatch_ms", dispatch_ms / n, "ms", samples.len());

    // Layer-sum check over the whole traced phase, against the request
    // times the client measured. The layers are the client's lateness
    // against its schedule and the server's own time per request (its
    // `serve.request_ns` histogram, routing to rendered answer). The
    // residual is what neither covers: loopback transport, HTTP read
    // and write, and thread wake-ups, waits for a CPU included.
    let late: f64 = samples.iter().map(|s| ms(s.sent - s.due)).sum();
    let layers = BTreeMap::from([("bench.send_late", late), ("serve.dispatch", dispatch_ms)]);
    let wall: f64 = traced_lat.iter().sum();
    let check = layer_sum_check(
        &BTreeMap::from([(0, layers)]),
        "serve.request",
        &BTreeMap::from([(0, wall)]),
        SERVE_TOL,
    );
    rep.layer_sum(&check, "traced phase, requests summed");
    rep.spans = spans;
    Ok(())
}
