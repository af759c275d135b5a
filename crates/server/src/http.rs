//! A minimal HTTP/1.1 wire layer: request parsing, response writing, a
//! tiny client side for the load generator, and server-sent-event frames.
//!
//! Scope is deliberately narrow — `Content-Length` bodies only (no
//! chunked transfer on the request path), no URL percent-decoding, and
//! keep-alive without pipelining — which covers every client this
//! workspace ships (the `repro loadgen` driver, the CI smoke, and the
//! integration tests) without pulling in a dependency.

use preexec_json::Json;
use std::io::{self, BufRead, Read, Write};

/// Upper bound on a request or response body, in bytes.
pub const MAX_BODY: usize = 4 << 20;
/// Upper bound on one header line, in bytes.
const MAX_LINE: usize = 16 << 10;
/// Upper bound on the number of headers per message.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Parsed `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers, in order of appearance; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads one `\n`-terminated line, enforcing [`MAX_LINE`]. `Ok(None)`
/// means clean EOF before any byte.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut buf = Vec::new();
    let mut limited = r.take(MAX_LINE as u64);
    let n = limited
        .read_until(b'\n', &mut buf)
        .map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && n >= MAX_LINE {
        return Err("header line too long".to_string());
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| "non-utf8 header".to_string())
}

impl Request {
    /// Parses one request from `r`. `Ok(None)` means the peer closed the
    /// connection cleanly before sending anything (keep-alive end).
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Request>, String> {
        let line = match read_line(r)? {
            None => return Ok(None),
            Some(l) if l.is_empty() => return Err("empty request line".to_string()),
            Some(l) => l,
        };
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or("missing method")?.to_uppercase();
        let target = parts.next().ok_or("missing request target")?;
        let version = parts.next().ok_or("missing HTTP version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported version {version:?}"));
        }
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = query_str
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (pair.to_string(), String::new()),
            })
            .collect();

        let mut headers = Vec::new();
        loop {
            let line = read_line(r)?.ok_or("eof in headers")?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err("too many headers".to_string());
            }
            let (name, value) = line.split_once(':').ok_or("malformed header")?;
            headers.push((name.trim().to_lowercase(), value.trim().to_string()));
        }

        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().map_err(|_| "bad content-length".to_string()))
            .transpose()?
            .unwrap_or(0);
        if len > MAX_BODY {
            return Err("body too large".to_string());
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;

        Ok(Some(Request {
            method,
            path: path.to_string(),
            query,
            headers,
            body,
        }))
    }

    /// The first header with `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter `name`, if any.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "non-utf8 body".to_string())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn connection_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Whether the client asked for a server-sent-event stream (either
    /// `Accept: text/event-stream` or a `stream=sse` query parameter).
    pub fn wants_sse(&self) -> bool {
        self.query("stream") == Some("sse")
            || self
                .header("accept")
                .is_some_and(|v| v.contains("text/event-stream"))
    }
}

/// The canonical reason phrase for the status codes this kit emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An HTTP response to be written to a connection.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added when
    /// writing).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            headers: vec![("content-type".to_string(), "application/json".to_string())],
            body: value.to_string().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(status, &Json::object().with("error", msg))
    }

    /// Adds a header and returns `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serializes the response, closing or keeping the connection as
    /// requested.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        // One buffered write per response: head + body in a single
        // segment avoids the Nagle/delayed-ACK stall on keep-alive
        // connections (~40ms per request otherwise).
        let mut out = Vec::with_capacity(256 + self.body.len());
        use std::io::Write as _;
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (k, v) in &self.headers {
            write!(out, "{k}: {v}\r\n")?;
        }
        write!(out, "content-length: {}\r\n", self.body.len())?;
        write!(
            out,
            "connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

/// One server-sent-event frame: `event: <event>` + `data: <data>`.
/// `data` must be single-line (ours is always compact JSON or a short
/// progress message).
pub fn sse_frame(event: &str, data: &str) -> String {
    format!("event: {event}\ndata: {data}\n\n")
}

/// Writes the response head of an SSE stream (no `Content-Length`; the
/// connection closes when the stream ends).
pub fn write_sse_head(w: &mut impl Write) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\nconnection: close\r\n\r\n"
    )?;
    w.flush()
}

/// Client side: writes a request with a `Content-Length` body.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    // Single-segment write, mirroring `Response::write_to`.
    let mut out = Vec::with_capacity(256 + body.len());
    write!(out, "{method} {path} HTTP/1.1\r\nhost: preexec\r\n")?;
    for (k, v) in headers {
        write!(out, "{k}: {v}\r\n")?;
    }
    if !body.is_empty() {
        write!(out, "content-type: application/json\r\n")?;
    }
    write!(out, "content-length: {}\r\n\r\n", body.len())?;
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Client side: reads one response (status, headers, `Content-Length`
/// body).
pub fn read_response(r: &mut impl BufRead) -> Result<Response, String> {
    let line = read_line(r)?.ok_or("eof before status line")?;
    let mut parts = line.split_whitespace();
    let _version = parts.next().ok_or("missing version")?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad status code")?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or("eof in headers")?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_lowercase(), value.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| "bad content-length".to_string()))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err("body too large".to_string());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_query_and_body() {
        let raw =
            b"POST /v1/select?stream=sse&x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\n{}";
        let req = Request::read_from(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/select");
        assert_eq!(req.query("stream"), Some("sse"));
        assert_eq!(req.query("x"), Some("1"));
        assert!(req.wants_sse());
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.body_str().unwrap(), "{}");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_err() {
        assert!(Request::read_from(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
        assert!(Request::read_from(&mut BufReader::new(&b"nonsense\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let resp = Response::json(200, &Json::object().with("ok", true)).with_header("x-a", "b");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let back = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body_str(), r#"{"ok":true}"#);
        assert_eq!(
            back.headers.iter().find(|(k, _)| k == "x-a").unwrap().1,
            "b"
        );
    }

    #[test]
    fn request_round_trips_through_server_parser() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/sim", &[], br#"{"bench":"gap"}"#).unwrap();
        let req = Request::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sim");
        assert_eq!(req.body_str().unwrap(), r#"{"bench":"gap"}"#);
    }

    #[test]
    fn sse_frame_shape() {
        assert_eq!(sse_frame("result", "{}"), "event: result\ndata: {}\n\n");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(Request::read_from(&mut BufReader::new(raw.as_bytes())).is_err());
    }
}
