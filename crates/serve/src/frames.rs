//! The frame-protocol listener: the same queries over a
//! length-prefixed wire format instead of HTTP.
//!
//! A frame is `[opcode u8][len u64 LE][payload]` ([`write_frame`],
//! [`read_frame_capped`]); query payloads and replies are compact JSON
//! documents, so a frame client and an HTTP client see byte-identical
//! answer bodies. Query opcodes live in `0x20..0x2f`, replies in
//! `0xa0..0xaf`.
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

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use socmix_obs::Counter;

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

/// Upper bound on accepted payload sizes (8 GiB). A frame header
/// announcing more than this means a corrupt or desynchronized stream,
/// not a real workload — reject it instead of trying to allocate.
const MAX_FRAME: u64 = 8 << 30;

/// Granularity of incremental payload allocation in
/// [`read_frame_capped`]. The buffer grows by at most this much ahead
/// of the bytes that have actually arrived, so a forged header costs
/// one chunk of memory before the short read surfaces, not the
/// announced length.
const READ_CHUNK: usize = 1 << 20;

/// Writes one frame. The caller is responsible for flushing when the
/// frame completes a request batch.
pub fn write_frame<W: Write>(w: &mut W, op: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 9];
    header[0] = op;
    header[1..9].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame, bounding the announced payload length both by
/// `MAX_FRAME` and by a caller-supplied per-opcode cap.
///
/// The payload buffer grows in `READ_CHUNK` steps as bytes actually
/// arrive rather than being allocated up front, so a hostile or
/// desynchronized peer announcing gigabytes it never sends cannot OOM
/// the process: the allocation tracks delivery, and the inevitable
/// short read surfaces as an `io::Error` after at most one chunk.
///
/// A length above the opcode's cap is an `InvalidData` error *before*
/// any payload byte is read. Note the stream is left desynchronized in
/// that case (the announced payload is still in flight); callers are
/// expected to drop the connection, which is exactly what the
/// listener does with any frame error.
pub fn read_frame_capped<R: Read>(r: &mut R, cap: impl Fn(u8) -> u64) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let op = header[0];
    let len = u64::from_le_bytes([
        header[1], header[2], header[3], header[4], header[5], header[6], header[7], header[8],
    ]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds protocol maximum"),
        ));
    }
    let op_cap = cap(op);
    if len > op_cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {op_cap} for opcode {op:#04x}"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let step = (len - payload.len()).min(READ_CHUNK);
        let filled = payload.len();
        payload.resize(filled + step, 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok((op, payload))
}

/// Best-effort shed reply for a connection rejected at accept.
pub(crate) fn write_shed(stream: &mut TcpStream) {
    let mut w = BufWriter::new(stream);
    let _ = write_frame(&mut w, REPLY_Q_SHED, SHED_BODY.as_bytes());
    let _ = w.flush();
}

/// Reads one query frame off a shed connection (under the same
/// payload caps as a served one) and drops it.
pub(crate) fn discard_query<R: Read>(r: &mut R) {
    let _ = read_frame_capped(r, query_cap);
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
        let (op, payload) = match read_frame_capped(&mut reader, query_cap) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let body = format!("{{\"error\":{}}}", json_escape(&e.to_string()));
                let _ = write_frame(&mut writer, REPLY_Q_ERR, body.as_bytes());
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
        if write_frame(&mut writer, reply, body.as_bytes()).is_err() || writer.flush().is_err() {
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

    /// Reads a frame under no opcode cap beyond [`MAX_FRAME`].
    fn read_any(buf: &[u8]) -> io::Result<(u8, Vec<u8>)> {
        read_frame_capped(&mut &buf[..], |_| MAX_FRAME)
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_Q_MIX, b"hello").unwrap();
        let (op, payload) = read_any(&buf).unwrap();
        assert_eq!(op, OP_Q_MIX);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_Q_METRICS, &[]).unwrap();
        let (op, payload) = read_any(&buf).unwrap();
        assert_eq!(op, OP_Q_METRICS);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_Q_MIX, &[1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_any(&buf).is_err());
        // header alone cut short
        assert!(read_any(&[OP_Q_MIX, 9]).is_err());
    }

    #[test]
    fn forged_header_short_reads_without_eager_allocation() {
        // A hostile peer announces just under MAX_FRAME but delivers
        // only a handful of bytes: the chunked reader must surface the
        // short read after at most one chunk, not allocate 8 GiB.
        let mut buf = vec![OP_Q_MIX];
        buf.extend_from_slice(&(MAX_FRAME - 1).to_le_bytes());
        buf.extend_from_slice(&[0xab; 64]);
        let err = read_any(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn per_opcode_cap_rejects_before_reading_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_Q_MIX, &[0u8; 128]).unwrap();
        let err = read_frame_capped(&mut buf.as_slice(), |op| {
            if op == OP_Q_MIX {
                64
            } else {
                MAX_FRAME
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap 64"), "{err}");
        // The same frame passes once the cap admits it.
        let (op, payload) = read_frame_capped(&mut buf.as_slice(), |_| 128).unwrap();
        assert_eq!(op, OP_Q_MIX);
        assert_eq!(payload.len(), 128);
        // And a header over the protocol maximum fails whatever the cap.
        let mut huge = vec![OP_Q_MIX];
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame_capped(&mut huge.as_slice(), |_| u64::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn multi_chunk_payload_roundtrips() {
        // Exercise the incremental-growth path with a payload spanning
        // several READ_CHUNK steps (plus a ragged tail).
        let big: Vec<u8> = (0..(READ_CHUNK * 2 + 37))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_Q_LOAD, &big).unwrap();
        let (op, payload) = read_any(&buf).unwrap();
        assert_eq!(op, OP_Q_LOAD);
        assert_eq!(payload, big);
    }

    #[test]
    fn every_query_opcode_routes() {
        for op in [
            OP_Q_MIX,
            OP_Q_ESCAPE,
            OP_Q_ADMIT,
            OP_Q_METRICS,
            OP_Q_LOAD,
            OP_Q_EVICT,
        ] {
            assert!(route(op).is_some(), "opcode {op:#04x}");
        }
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
