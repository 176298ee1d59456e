//! End-to-end tests over real sockets: both listeners, the answer
//! cache, batched-vs-per-request equivalence, and overload shedding.
//!
//! Every test binds its own server on an ephemeral port with its own
//! temp cache dir, so the suite parallelizes under the normal libtest
//! harness.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use socmix_serve::frames::{
    OP_Q_ESCAPE, OP_Q_METRICS, OP_Q_MIX, REPLY_Q_ERR, REPLY_Q_OK, REPLY_Q_SHED,
};
use socmix_serve::{ServeConfig, Server, SHED_BODY};

/// The client side of the serve codec: replies are read with no
/// per-opcode cap (a metrics snapshot can be any size).
mod frame {
    pub use socmix_serve::frames::write_frame;

    pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<(u8, Vec<u8>)> {
        socmix_serve::frames::read_frame_capped(r, |_| u64::MAX)
    }
}

/// A throwaway config bound to ephemeral ports.
fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        frame_addr: Some("127.0.0.1:0".to_string()),
        threads: 4,
        ..ServeConfig::default()
    }
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("socmix-serve-it-{tag}-{}", std::process::id()))
}

/// One `Connection: close` request; returns (status, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    parse_reply(&reply)
}

fn parse_reply(reply: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(reply);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed reply: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn end_to_end_load_query_evict() {
    let dir = temp_cache("e2e");
    let server = Server::start(test_config(), &dir).expect("server starts");
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/health", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    // Querying before loading is a routable 404, not an error.
    let (status, body) = http(addr, "GET", "/mix?graph=wiki-vote", "");
    assert_eq!(status, 404, "unloaded graph: {body}");
    assert!(body.contains("/load"));

    let (status, body) = http(addr, "POST", "/load?graph=wiki-vote&scale=0.02&seed=3", "");
    assert_eq!(status, 200, "load failed: {body}");
    let doc = socmix_obs::parse(&body).expect("load reply is JSON");
    assert!(
        doc.get("n")
            .and_then(socmix_obs::Value::as_i64)
            .unwrap_or(0)
            > 2
    );

    // /mix twice: the second answer must come from the cache and be
    // byte-identical.
    let (status, mix1) = http(addr, "GET", "/mix?graph=wiki-vote&eps=0.25", "");
    assert_eq!(status, 200, "mix failed: {mix1}");
    let (status, mix2) = http(addr, "GET", "/mix?graph=wiki-vote&eps=0.25", "");
    assert_eq!(status, 200);
    assert_eq!(mix1, mix2, "cached answer must serve the same bytes");
    let doc = socmix_obs::parse(&mix1).expect("mix reply is JSON");
    let mu = doc
        .get("mu")
        .and_then(socmix_obs::Value::as_f64)
        .expect("mu");
    assert!(mu > 0.0 && mu < 1.0);

    let (status, esc) = http(addr, "GET", "/escape?graph=wiki-vote&node=0&w=8", "");
    assert_eq!(status, 200, "escape failed: {esc}");
    let p = socmix_obs::parse(&esc)
        .expect("escape reply is JSON")
        .get("escape_probability")
        .and_then(socmix_obs::Value::as_f64)
        .expect("probability field");
    assert!((0.0..=1.0).contains(&p));

    let (status, adm) = http(
        addr,
        "POST",
        "/admit",
        "{\"graph\":\"wiki-vote\",\"verifier\":0,\"suspects\":[1,2,3],\"w\":10}",
    );
    assert_eq!(status, 200, "admit failed: {adm}");
    let verdicts = socmix_obs::parse(&adm).expect("admit reply is JSON");
    assert_eq!(
        verdicts
            .get("verdicts")
            .and_then(socmix_obs::Value::as_arr)
            .map(|a| a.len()),
        Some(3)
    );

    // The ops surface: /metrics parses and carries serve counters.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let snap = socmix_obs::parse(&metrics).expect("/metrics must serve valid JSON");
    let rendered = snap.to_compact();
    assert!(
        rendered.contains("serve.requests"),
        "snapshot carries serve counters: {rendered}"
    );

    let (status, graphs) = http(addr, "GET", "/graphs", "");
    assert_eq!(status, 200);
    assert!(graphs.contains("wiki-vote"));

    let (status, body) = http(addr, "POST", "/evict?graph=wiki-vote", "");
    assert_eq!((status, body.as_str()), (200, "{\"evicted\":true}"));
    let (status, _) = http(addr, "GET", "/mix?graph=wiki-vote", "");
    assert_eq!(status, 404, "evicted graph is gone");

    let (status, body) = http(addr, "GET", "/no-such", "");
    assert_eq!(status, 404, "unknown endpoint: {body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_and_per_request_serve_identical_bytes() {
    // Two servers over the same cache dir: one batching, one in
    // per-request mode (batch_max 1).
    let dir = temp_cache("batch");
    let mut solo_cfg = test_config();
    solo_cfg.batch_max = 1;
    let batched = Server::start(test_config(), &dir).expect("batched server");
    let solo = Server::start(solo_cfg, &dir).expect("per-request server");

    for srv in [&batched, &solo] {
        let (status, body) = http(
            srv.local_addr(),
            "POST",
            "/load?graph=wiki-vote&scale=0.02&seed=3",
            "",
        );
        assert_eq!(status, 200, "load: {body}");
    }

    // Concurrent probes against the batched server may coalesce; the
    // answers must still match the per-request server byte for byte.
    let nodes: Vec<u64> = (0..8).collect();
    let addr = batched.local_addr();
    let handles: Vec<_> = nodes
        .iter()
        .map(|&node| {
            std::thread::spawn(move || {
                http(
                    addr,
                    "GET",
                    &format!("/escape?graph=wiki-vote&node={node}&w=8"),
                    "",
                )
            })
        })
        .collect();
    let batched_bodies: Vec<(u64, String)> = nodes
        .iter()
        .zip(handles)
        .map(|(&node, h)| {
            let (status, body) = h.join().expect("probe thread");
            assert_eq!(status, 200, "batched probe: {body}");
            (node, body)
        })
        .collect();

    for (node, batched_body) in &batched_bodies {
        let (status, solo_body) = http(
            solo.local_addr(),
            "GET",
            &format!("/escape?graph=wiki-vote&node={node}&w=8"),
            "",
        );
        assert_eq!(status, 200);
        assert_eq!(
            &solo_body, batched_body,
            "node {node}: batched and per-request answers must be bit-identical"
        );
    }

    batched.shutdown();
    solo.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frame_listener_matches_http_answers() {
    let dir = temp_cache("frames");
    let server = Server::start(test_config(), &dir).expect("server starts");
    let addr = server.local_addr();
    let frame_addr = server.frame_addr().expect("frame listener enabled");

    let (status, body) = http(addr, "POST", "/load?graph=wiki-vote&scale=0.02&seed=3", "");
    assert_eq!(status, 200, "load: {body}");
    let (_, http_mix) = http(addr, "GET", "/mix?graph=wiki-vote&eps=0.25", "");

    let stream = TcpStream::connect(frame_addr).expect("connect to frame listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    frame::write_frame(
        &mut writer,
        OP_Q_MIX,
        b"{\"graph\":\"wiki-vote\",\"eps\":0.25}",
    )
    .expect("send mix query");
    writer.flush().expect("flush");
    let (op, payload) = frame::read_frame(&mut reader).expect("mix reply");
    assert_eq!(
        op,
        REPLY_Q_OK,
        "reply: {}",
        String::from_utf8_lossy(&payload)
    );
    assert_eq!(
        String::from_utf8_lossy(&payload),
        http_mix,
        "frame and HTTP answers must be byte-identical"
    );

    // Same connection, second query: escape.
    frame::write_frame(
        &mut writer,
        OP_Q_ESCAPE,
        b"{\"graph\":\"wiki-vote\",\"node\":0,\"w\":8}",
    )
    .expect("send escape query");
    writer.flush().expect("flush");
    let (op, payload) = frame::read_frame(&mut reader).expect("escape reply");
    assert_eq!(op, REPLY_Q_OK);
    let (_, http_esc) = http(addr, "GET", "/escape?graph=wiki-vote&node=0&w=8", "");
    assert_eq!(String::from_utf8_lossy(&payload), http_esc);

    // Unknown opcode: typed error, not a hang or disconnect-mid-frame.
    frame::write_frame(&mut writer, 0x6f, b"{}").expect("send bogus opcode");
    writer.flush().expect("flush");
    let (op, payload) = frame::read_frame(&mut reader).expect("error reply");
    assert_eq!(op, REPLY_Q_ERR);
    assert!(String::from_utf8_lossy(&payload).contains("unknown query opcode"));

    // Release the worker serving this connection before joining it.
    drop(writer);
    drop(reader);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_header_gets_a_typed_error_and_a_closed_connection() {
    let dir = temp_cache("frame-caps");
    let server = Server::start(test_config(), &dir).expect("server starts");
    let frame_addr = server.frame_addr().expect("frame listener enabled");
    let connect = || {
        let stream = TcpStream::connect(frame_addr).expect("connect to frame listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
    };
    // One byte over each opcode's payload cap. Only the header is
    // sent: the listener must refuse on the announced length alone,
    // before reading (or allocating for) any payload.
    for (op, cap) in [(OP_Q_METRICS, 4u64 << 10), (OP_Q_MIX, 1u64 << 20)] {
        let mut stream = connect();
        let mut header = vec![op];
        header.extend_from_slice(&(cap + 1).to_le_bytes());
        stream.write_all(&header).expect("send oversized header");
        let (reply, payload) = frame::read_frame(&mut stream).expect("error reply");
        assert_eq!(reply, REPLY_Q_ERR, "opcode {op:#04x}");
        let body = String::from_utf8_lossy(&payload);
        let doc = socmix_obs::parse(&body).expect("error reply is JSON");
        let msg = doc
            .get("error")
            .and_then(socmix_obs::Value::as_str)
            .expect("error field");
        assert!(
            msg.contains(&format!("exceeds cap {cap}")),
            "opcode {op:#04x}: {msg}"
        );
        // The listener drops the connection after the error reply.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "opcode {op:#04x}: bytes after the error");
    }
    // A fresh connection is still answered.
    let mut stream = connect();
    frame::write_frame(&mut stream, OP_Q_METRICS, b"{}").expect("send metrics query");
    let (reply, _) = frame::read_frame(&mut stream).expect("metrics reply");
    assert_eq!(reply, REPLY_Q_OK);
    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_503_not_a_hang() {
    let dir = temp_cache("overload");
    let mut cfg = test_config();
    cfg.threads = 1;
    cfg.queue = 1;
    cfg.deadline = Duration::from_millis(100);
    let server = Server::start(cfg, &dir).expect("server starts");
    let addr = server.local_addr();

    // Occupy the only worker with an idle keep-alive connection.
    let mut hog = TcpStream::connect(addr).expect("hog connects");
    hog.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    hog.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("hog request");
    let mut buf = [0u8; 512];
    let n = hog.read(&mut buf).expect("hog gets served");
    assert!(String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"));

    // Fill the queue (this connection waits behind the hog, its
    // request already sent)...
    let request = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut queued = TcpStream::connect(addr).expect("queued connects");
    queued.write_all(request).expect("queued request");

    // ...then every further connection must be shed at the door with
    // the typed 503, immediately. Each client sends its whole request
    // before it reads, and must still read the whole reply: a server
    // that closes with the request unread resets the connection.
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..20 {
        let mut extra = TcpStream::connect(addr).expect("extra connects");
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        extra.write_all(request).expect("extra request");
        let mut reply = Vec::new();
        extra
            .read_to_end(&mut reply)
            .unwrap_or_else(|e| panic!("shed client {i} lost its reply: {e}"));
        let (status, body) = parse_reply(&reply);
        assert_eq!(status, 503, "full queue sheds at accept (client {i})");
        assert_eq!(body, SHED_BODY, "shed body is the typed overload JSON");
    }
    // The frame listener sheds the same way.
    let frame_addr = server.frame_addr().expect("frame listener enabled");
    for i in 0..5 {
        let mut extra = TcpStream::connect(frame_addr).expect("frame client connects");
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        frame::write_frame(&mut extra, OP_Q_MIX, b"{\"graph\":\"wiki-vote\"}")
            .expect("frame query");
        let (op, payload) = frame::read_frame(&mut extra)
            .unwrap_or_else(|e| panic!("shed frame client {i} lost its reply: {e}"));
        assert_eq!(op, REPLY_Q_SHED, "frame client {i}");
        assert_eq!(payload, SHED_BODY.as_bytes());
    }

    // The queued connection outlived its 100ms deadline while the hog
    // held the worker: it must be shed too, not served stale.
    std::thread::sleep(Duration::from_millis(100));
    drop(hog);
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = Vec::new();
    queued
        .read_to_end(&mut reply)
        .expect("queued gets an answer");
    let (status, body) = parse_reply(&reply);
    assert_eq!(status, 503, "aged-out queued connection sheds: {body}");
    assert_eq!(body, SHED_BODY);

    // And the server still serves fresh traffic afterwards.
    let (status, body) = http(addr, "GET", "/health", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
