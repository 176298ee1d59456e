//! The frame-protocol listener: the same queries over the workspace's
//! length-prefixed wire format instead of HTTP.
//!
//! A frame is the shard protocol's `[opcode u8][len u64 LE][payload]`
//! (see `socmix_par::shard::frame`); query payloads and replies are
//! compact JSON documents, so a frame client and an HTTP client see
//! byte-identical answer bodies. Query opcodes live in `0x20..0x2f`,
//! replies in `0xa0..0xaf` — disjoint from both the shard opcodes
//! (`1..=8`) and the shard replies (`0x81..`), so a frame accidentally
//! sent to the wrong listener dies with a typed error instead of
//! being misinterpreted.
//!
//! | opcode | query | payload |
//! |--------|-------|---------|
//! | `0x20` | mix | `{"graph", "eps"}` |
//! | `0x21` | escape | `{"graph", "node", "w"}` |
//! | `0x22` | admit | `{"graph", "verifier", "suspects", "w"}` |
//! | `0x23` | metrics | `{}` |
//! | `0x24` | load | `{"graph", "scale", "seed"}` |
//! | `0x25` | evict | `{"graph"}` |
//!
//! Replies: `0xa0` OK (JSON body), `0xa1` error (JSON `{"error"}`
//! body), `0xa2` shed (overload; same JSON body as the HTTP 503).

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use socmix_obs::Counter;
use socmix_par::shard::frame;

use crate::server::{dispatch, Shared, SHED_BODY};

/// Mixing-time query (`GET /mix` equivalent).
pub const OP_Q_MIX: u8 = 0x20;
/// Escape-probability probe (`GET /escape` equivalent).
pub const OP_Q_ESCAPE: u8 = 0x21;
/// SybilLimit admission (`POST /admit` equivalent).
pub const OP_Q_ADMIT: u8 = 0x22;
/// Metrics snapshot (`GET /metrics` equivalent).
pub const OP_Q_METRICS: u8 = 0x23;
/// Catalog load (`POST /load` equivalent).
pub const OP_Q_LOAD: u8 = 0x24;
/// Catalog evict (`POST /evict` equivalent).
pub const OP_Q_EVICT: u8 = 0x25;

/// Successful reply; payload is the JSON answer body.
pub const REPLY_Q_OK: u8 = 0xa0;
/// Failed reply; payload is a JSON `{"error": ...}` body.
pub const REPLY_Q_ERR: u8 = 0xa1;
/// Overload reply; payload matches the HTTP 503 shed body.
pub const REPLY_Q_SHED: u8 = 0xa2;

/// Query payloads are small JSON documents; anything bigger than this
/// is an attack or a bug, and is rejected before allocation.
const QUERY_CAP: u64 = 1 << 20;

/// Cap for queries whose payload is at most a graph name or empty (a
/// metrics snapshot, an evict): 4 KiB admits any real request while
/// rejecting a forged header three orders of magnitude earlier.
const QUERY_CAP_SMALL: u64 = 4 << 10;

/// Per-opcode payload cap, enforced on the frame header before any
/// allocation. Every routed opcode appears explicitly — socmix-lint's
/// protocol-exhaustiveness rule (SL010) holds this table and [`route`]
/// to the opcode list above, so adding a query without sizing its
/// payload fails `check`.
fn query_cap(op: u8) -> u64 {
    match op {
        OP_Q_MIX | OP_Q_ESCAPE | OP_Q_ADMIT | OP_Q_LOAD => QUERY_CAP,
        OP_Q_METRICS | OP_Q_EVICT => QUERY_CAP_SMALL,
        // Unknown opcodes get the small cap: enough to read the frame
        // and answer through `route`'s typed unknown-opcode reply.
        _ => QUERY_CAP_SMALL,
    }
}

static FRAME_QUERIES: Counter = Counter::new("serve.frame_queries");

/// Best-effort shed reply for a connection rejected at accept.
pub(crate) fn write_shed(stream: &mut TcpStream) {
    let mut w = BufWriter::new(stream);
    let _ = frame::write_frame(&mut w, REPLY_Q_SHED, SHED_BODY.as_bytes());
    let _ = w.flush();
}

/// Reads one query frame off a shed connection (under the same
/// payload caps as a served one) and drops it.
pub(crate) fn discard_query<R: Read>(r: &mut R) {
    let _ = frame::read_frame_capped(r, query_cap);
}

/// Maps a frame opcode onto the shared dispatch's (method, path).
fn route(op: u8) -> Option<(&'static str, &'static str)> {
    match op {
        OP_Q_MIX => Some(("GET", "/mix")),
        OP_Q_ESCAPE => Some(("GET", "/escape")),
        OP_Q_ADMIT => Some(("POST", "/admit")),
        OP_Q_METRICS => Some(("GET", "/metrics")),
        OP_Q_LOAD => Some(("POST", "/load")),
        OP_Q_EVICT => Some(("POST", "/evict")),
        _ => None,
    }
}

/// Serves one frame connection until EOF or a malformed frame.
pub(crate) fn serve_frame_conn(shared: &Shared, stream: TcpStream, arrived: Instant) {
    super::server::frame_conn_opened();
    let _ = stream.set_nodelay(true);
    // Same idle policy as HTTP keep-alive: a silent client releases
    // the worker (and lets shutdown join it) instead of pinning it in
    // a read forever.
    let _ = stream.set_read_timeout(Some(super::server::IDLE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(s) => BufWriter::new(s),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut first = true;
    loop {
        let (op, payload) = match frame::read_frame_capped(&mut reader, query_cap) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let body = format!("{{\"error\":{}}}", json_escape(&e.to_string()));
                let _ = frame::write_frame(&mut writer, REPLY_Q_ERR, body.as_bytes());
                let _ = writer.flush();
                return;
            }
            Err(_) => return,
        };
        FRAME_QUERIES.incr();
        // Same deadline policy as HTTP: the first query inherits the
        // queue wait, later ones restart the clock.
        let deadline = if first {
            arrived + shared.cfg.deadline
        } else {
            Instant::now() + shared.cfg.deadline
        };
        first = false;

        let (reply, body) = match route(op) {
            None => (
                REPLY_Q_ERR,
                format!("{{\"error\":\"unknown query opcode {op:#04x}\"}}"),
            ),
            Some((method, path)) => {
                let resp = dispatch(shared, method, path, &[], &payload, deadline);
                let reply = match resp.status {
                    200 => REPLY_Q_OK,
                    503 => REPLY_Q_SHED,
                    _ => REPLY_Q_ERR,
                };
                (reply, resp.body)
            }
        };
        if frame::write_frame(&mut writer, reply, body.as_bytes()).is_err()
            || writer.flush().is_err()
        {
            return;
        }
    }
}

/// Minimal JSON string escape for error messages built by hand.
fn json_escape(s: &str) -> String {
    socmix_obs::Value::Str(s.to_string()).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_spaces_are_disjoint_from_the_shard_protocol() {
        for op in [
            OP_Q_MIX,
            OP_Q_ESCAPE,
            OP_Q_ADMIT,
            OP_Q_METRICS,
            OP_Q_LOAD,
            OP_Q_EVICT,
        ] {
            assert!(route(op).is_some());
            assert!(
                !(1..=8).contains(&op) && op != frame::OP_DEBUG_TRUNCATE,
                "query opcode {op:#04x} collides with a shard opcode"
            );
        }
        for reply in [REPLY_Q_OK, REPLY_Q_ERR, REPLY_Q_SHED] {
            assert!(
                reply != frame::REPLY_ACK
                    && reply != frame::REPLY_DATA
                    && reply != frame::REPLY_SNAPSHOT
                    && reply != frame::REPLY_TRACE
                    && reply != frame::REPLY_ERR,
                "reply {reply:#04x} collides with a shard reply"
            );
        }
        assert!(
            route(frame::OP_APPLY).is_none(),
            "shard opcodes do not route"
        );
    }

    #[test]
    fn json_escape_quotes_and_backslashes() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        let escaped = json_escape("a \"b\" \\ c");
        assert!(
            socmix_obs::parse(&escaped).is_ok(),
            "round-trips: {escaped}"
        );
    }
}
