//! Bench: the serving layer under closed-loop load — batched vs
//! per-request dispatch at concurrency 1 and 8, plus an overload burst
//! against a tiny accept queue.
//!
//! Hand-rolled so the variants interleave: each round
//! times every (dispatch, concurrency) cell once over real TCP against
//! two in-process servers sharing one graph cache — one batching, one
//! with `batch_max = 1` — so clock drift and cache state land on every
//! variant equally. Every `/escape` answer is one entry of the
//! (graph, `w`) escape table, which each server builds on its first
//! probe at that `w` (in the untimed warm-up) and keeps; a timed probe
//! is a table lookup plus transport, and a batch shares one lookup.
//! Batching has no timer: a probe that finds no batch of its key
//! computing computes at once, and probes arriving during a compute
//! form the next batch. Clients are
//! closed-loop (each keeps exactly one request in flight over a
//! keep-alive connection), so QPS here is throughput at saturation,
//! not an open-loop arrival rate. Latency quantiles (p50/p95/p99) ride
//! along as extra JSON fields the regression gate ignores.
//!
//! The overload row is a semantic check as much as a timing: a burst
//! of simultaneous connections against `queue = 2, threads = 1` must
//! come back as fast typed 503s — the bench asserts `shed > 0` and
//! that the burst drains instead of hanging.
//!
//! Statistics go to `BENCH_serve.json` (override with
//! `SOCMIX_BENCH_JSON`) in the same record format as the other
//! baselines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use socmix_serve::{ServeConfig, Server};

/// Requests each closed-loop client issues per timed sample.
const REQS_PER_CLIENT: usize = 30;
const ROUNDS: usize = 5;
const CONCURRENCIES: [usize; 2] = [1, 8];
/// Walk length for the `/escape` probes. A server's first probe
/// builds the table with this many matvecs; after that the length no
/// longer changes what a probe costs.
const ESCAPE_W: u64 = 256;
/// Connections fired at once in the overload regime.
const BURST: usize = 16;

/// One keep-alive HTTP exchange; returns (status, body).
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    target: &str,
) -> (u16, String) {
    write!(writer, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").expect("write request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut len = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let l = line.trim();
        if l.is_empty() {
            break;
        }
        if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// One closed-loop sample at `conc` clients; returns (elapsed_ns,
/// per-request latencies in ns).
fn closed_loop(addr: std::net::SocketAddr, conc: usize) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let lat: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conc)
            .map(|c| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut lat = Vec::with_capacity(REQS_PER_CLIENT);
                    for j in 0..REQS_PER_CLIENT {
                        let node = (c * REQS_PER_CLIENT + j) % 16;
                        let target = format!("/escape?graph=wiki-vote&node={node}&w={ESCAPE_W}");
                        let t = Instant::now();
                        let (status, body) = exchange(&mut reader, &mut writer, &target);
                        assert_eq!(status, 200, "escape probe failed: {body}");
                        lat.push(t.elapsed().as_secs_f64() * 1e9);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    (elapsed, lat.into_iter().flatten().collect())
}

/// Overload burst: `BURST` simultaneous connections against a
/// one-worker, two-slot server. Returns (latencies, served, shed).
fn burst(addr: std::net::SocketAddr) -> (Vec<f64>, usize, usize) {
    let served = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let lat: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                s.spawn(|| {
                    let t = Instant::now();
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let (status, _) = exchange(
                        &mut reader,
                        &mut writer,
                        &format!("/escape?graph=wiki-vote&node=0&w={ESCAPE_W}"),
                    );
                    match status {
                        200 => served.fetch_add(1, Ordering::Relaxed),
                        503 => shed.fetch_add(1, Ordering::Relaxed),
                        other => panic!("unexpected status {other} under overload"),
                    };
                    t.elapsed().as_secs_f64() * 1e9
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client"))
            .collect()
    });
    (lat, served.into_inner(), shed.into_inner())
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct Row {
    id: String,
    lat: Vec<f64>,
    /// Median across rounds of the per-round throughput.
    qps: f64,
    shed: Option<usize>,
}

impl Row {
    fn render(&self, last: bool) -> String {
        let mut t = self.lat.clone();
        t.sort_by(|a, b| a.total_cmp(b));
        let min = t[0];
        let median = quantile(&t, 0.5);
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        println!(
            "{:<28} time: [{:.3} ms {:.3} ms {:.3} ms]  qps: {:.0}{}",
            self.id,
            min / 1e6,
            median / 1e6,
            mean / 1e6,
            self.qps,
            self.shed
                .map(|n| format!("  shed: {n}"))
                .unwrap_or_default()
        );
        format!(
            "  {{\"id\":\"{}\",\"min_ns\":{min:.1},\"median_ns\":{median:.1},\
             \"mean_ns\":{mean:.1},\"samples\":{},\"iters_per_sample\":1,\
             \"qps\":{:.1},\"p50_ns\":{median:.1},\"p95_ns\":{:.1},\"p99_ns\":{:.1}{}}}{}\n",
            self.id,
            t.len(),
            self.qps,
            quantile(&t, 0.95),
            quantile(&t, 0.99),
            self.shed
                .map(|n| format!(",\"shed\":{n}"))
                .unwrap_or_default(),
            if last { "" } else { "," }
        )
    }
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if let Some(f) = &filter {
        if !"serve/qps/batched_per_request_overload".contains(f.as_str()) {
            return;
        }
    }

    let cache_dir = std::env::temp_dir().join(format!("socmix-serve-bench-{}", std::process::id()));
    let base = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        frame_addr: None,
        threads: 4,
        ..ServeConfig::default()
    };
    // Two servers over one cache: the only difference is batch_max.
    let batched =
        Server::start(ServeConfig { ..base.clone() }, &cache_dir).expect("start batched server");
    let per_req = Server::start(
        ServeConfig {
            batch_max: 1,
            ..base.clone()
        },
        &cache_dir,
    )
    .expect("start per-request server");
    // Small but real graph: ~350 nodes, enough edges that an
    // ESCAPE_W-step table build is genuine matvec work.
    for srv in [&batched, &per_req] {
        let stream = TcpStream::connect(srv.local_addr()).expect("connect for load");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        write!(
            writer,
            "POST /load?graph=wiki-vote&scale=0.05&seed=3 HTTP/1.1\r\nHost: bench\r\n\
             Content-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .expect("write load");
        let (status, body) = {
            let mut line = String::new();
            reader.read_line(&mut line).expect("load status");
            let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            let mut rest = String::new();
            reader.read_to_string(&mut rest).expect("load body");
            (status, rest)
        };
        assert_eq!(status, 200, "preload failed: {body}");
    }

    let variants: [(&str, std::net::SocketAddr); 2] = [
        ("batched", batched.local_addr()),
        ("per_request", per_req.local_addr()),
    ];

    // warmup: one untimed sample per cell faults in pages + threads
    for &(_, addr) in &variants {
        for &c in &CONCURRENCIES {
            closed_loop(addr, c);
        }
    }

    // lat[variant][conc] pooled across rounds; qps medians per cell
    let mut lat = vec![vec![Vec::new(); CONCURRENCIES.len()]; variants.len()];
    let mut qps = vec![vec![Vec::new(); CONCURRENCIES.len()]; variants.len()];
    for _ in 0..ROUNDS {
        for (v, &(_, addr)) in variants.iter().enumerate() {
            for (ci, &c) in CONCURRENCIES.iter().enumerate() {
                let (elapsed, mut l) = closed_loop(addr, c);
                qps[v][ci].push((c * REQS_PER_CLIENT) as f64 / (elapsed / 1e9));
                lat[v][ci].append(&mut l);
            }
        }
    }
    per_req.shutdown();
    batched.shutdown();

    let mut rows = Vec::new();
    for (v, &(name, _)) in variants.iter().enumerate() {
        for (ci, &c) in CONCURRENCIES.iter().enumerate() {
            let mut q = qps[v][ci].clone();
            q.sort_by(|a, b| a.total_cmp(b));
            rows.push(Row {
                id: format!("serve/qps/{name}_c{c}"),
                lat: std::mem::take(&mut lat[v][ci]),
                qps: q[ROUNDS / 2],
                shed: None,
            });
        }
    }

    // Overload regime: its own server with one worker and a two-slot
    // queue, so most of the burst must shed at accept.
    let overload = Server::start(
        ServeConfig {
            threads: 1,
            queue: 2,
            ..base.clone()
        },
        &cache_dir,
    )
    .expect("start overload server");
    {
        let stream = TcpStream::connect(overload.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let (status, body) = exchange(
            &mut reader,
            &mut writer,
            "/escape?graph=wiki-vote&node=0&w=1",
        );
        assert_eq!(status, 404, "fresh server has nothing loaded: {body}");
    }
    // The overload server shares the cache dir, so this load is a
    // disk read, not a regeneration.
    {
        let stream = TcpStream::connect(overload.local_addr()).expect("connect for load");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        write!(
            writer,
            "POST /load?graph=wiki-vote&scale=0.05&seed=3 HTTP/1.1\r\nHost: bench\r\n\
             Content-Length: 0\r\n\r\n"
        )
        .expect("write load");
        let mut line = String::new();
        reader.read_line(&mut line).expect("load status");
        assert!(line.contains("200"), "overload preload failed: {line}");
    }
    let (blat, served, shed) = burst(overload.local_addr());
    overload.shutdown();
    assert!(
        shed > 0,
        "a {BURST}-connection burst against queue=2 must shed"
    );
    assert_eq!(served + shed, BURST, "every burst connection got an answer");
    rows.push(Row {
        id: format!("serve/overload/burst{BURST}_q2"),
        lat: blat,
        qps: 0.0,
        shed: Some(shed),
    });

    let n = rows.len();
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.render(i + 1 == n));
    }
    out.push_str("]\n");

    // Batched against per-request throughput. With every answer read
    // from a kept table, a batch saves only lookups.
    let q_of = |id: &str| {
        rows.iter()
            .find(|r| r.id == id)
            .map(|r| r.qps)
            .unwrap_or(f64::NAN)
    };
    let hi = *CONCURRENCIES.last().unwrap_or(&8);
    println!(
        "batched vs per-request qps: c1 {:.2}x, c{hi} {:.2}x",
        q_of("serve/qps/batched_c1") / q_of("serve/qps/per_request_c1"),
        q_of(&format!("serve/qps/batched_c{hi}")) / q_of(&format!("serve/qps/per_request_c{hi}")),
    );

    let path = std::env::var("SOCMIX_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".into());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
