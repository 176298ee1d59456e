//! Minimal HTTP/1.1 subset for the serving layer.
//!
//! Just enough of the protocol for `curl`, a load generator, and the
//! serve-smoke CI job: `GET`/`POST`, a request line, headers we care
//! about (`Content-Length`, `Connection`), an optional body, and
//! query-string parsing with percent-decoding. Anything outside that
//! subset is a typed 400, never a panic — this module is on the
//! request path and inside the SL005 hot-path lint scope.
//!
//! Bounds: the head (request line + headers) is capped at 16 KiB and
//! the body at 1 MiB; either overflow is a parse error so a client
//! cannot make the server allocate unboundedly. The body buffer grows
//! as bytes arrive, so a head that announces more body than it sends
//! costs at most one 64 KiB chunk.

use std::io::{self, Read, Write};

/// Head (request line + headers) size cap.
const MAX_HEAD: usize = 16 << 10;
/// Body size cap (`Content-Length` beyond this is rejected).
pub const MAX_BODY: usize = 1 << 20;
/// The body buffer's first allocation; it grows past this only as
/// body bytes arrive.
const BODY_CHUNK: usize = 64 << 10;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected at parse time).
    pub method: String,
    /// Decoded path without the query string, e.g. `/mix`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. `ConnectionClosed` is the clean
/// end of a keep-alive connection, not an error to report.
#[derive(Debug)]
pub enum ParseError {
    /// EOF before any byte of the next request — clean close.
    ConnectionClosed,
    /// I/O failure mid-request.
    Io(io::Error),
    /// Malformed or out-of-bounds request; the string is the reason
    /// sent back in the 400 body.
    Bad(String),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads one request off `r`. Blocks until a full head arrives; the
/// caller bounds that with a socket read timeout.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, ParseError> {
    let head = read_head(r)?;
    let text = String::from_utf8_lossy(&head);
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method != "GET" && method != "POST" {
        return Err(ParseError::Bad(format!("unsupported method {method:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = !version.ends_with("1.0");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY {
        return Err(ParseError::Bad(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"
        )));
    }

    let mut body = Vec::with_capacity(content_length.min(BODY_CHUNK));
    r.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(ParseError::Io(io::ErrorKind::UnexpectedEof.into()));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(k), percent_decode(v)));
    }

    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

/// Reads up to and including the `\r\n\r\n` head terminator, returning
/// the head bytes without the terminator. Bytes past the terminator
/// are never consumed (reads are one byte at a time through a caller-
/// provided `BufReader`, so this is not syscall-per-byte in practice).
fn read_head<R: Read>(r: &mut R) -> Result<Vec<u8>, ParseError> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                return if head.is_empty() {
                    Err(ParseError::ConnectionClosed)
                } else {
                    Err(ParseError::Io(io::ErrorKind::UnexpectedEof.into()))
                };
            }
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(head);
        }
        if head.len() > MAX_HEAD {
            return Err(ParseError::Bad(format!(
                "request head exceeds the {MAX_HEAD}-byte cap"
            )));
        }
    }
}

/// `%XX` and `+` decoding for paths and query components. Invalid
/// escapes pass through literally rather than failing the request.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(&String::from_utf8_lossy(h), 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response, rendered and flushed in a single call.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut io::Cursor::new(raw.to_vec()))
    }

    #[test]
    fn get_with_query_parses() {
        let req = parse(b"GET /mix?graph=ca-grqc&eps=0.25 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("well-formed GET");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/mix");
        assert_eq!(req.param("graph"), Some("ca-grqc"));
        assert_eq!(req.param("eps"), Some("0.25"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn post_reads_content_length_body() {
        let req = parse(
            b"POST /admit HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"w\": 10}",
        )
        .expect("well-formed POST");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"w\": 10}");
        assert!(!req.keep_alive);
    }

    #[test]
    fn percent_and_plus_decode() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%", "trailing escape is literal");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex is literal");
    }

    #[test]
    fn oversized_bodies_and_methods_are_typed_errors() {
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(huge.as_bytes()), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse(b"DELETE /x HTTP/1.1\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
    }

    /// Reads `data`, recording the largest buffer a read is offered.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn forged_content_length_allocates_only_as_bytes_arrive() {
        let mut raw =
            format!("POST /admit HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n").into_bytes();
        raw.extend_from_slice(&[b'x'; 64]);
        let mut r = Recording {
            data: &raw,
            largest: 0,
        };
        match read_request(&mut r) {
            Err(ParseError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("short body must be a typed EOF, got {other:?}"),
        }
        assert!(
            r.largest <= BODY_CHUNK,
            "offered {} bytes for a 64-byte body",
            r.largest
        );
    }

    #[test]
    fn response_has_framing_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", "{}", true).expect("write to vec");
        let text = String::from_utf8(out).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
