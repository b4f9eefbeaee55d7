//! Minimal HTTP/1.1 request parsing over a connection's buffered bytes,
//! and response serialisation.
//!
//! Only what the service needs: request line + headers + `Content-Length`
//! bodies, keep-alive, and hard limits that map to 400/413 instead of
//! unbounded buffering. No chunked transfer encoding — requests using it
//! are rejected with 411 (length required).

use std::io::Write;

/// Upper bound on the request line + headers block.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parse failure, tagged with the HTTP status it maps to.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line / headers / body framing (400).
    BadRequest(String),
    /// Headers or body exceeded a hard limit (413).
    PayloadTooLarge(String),
    /// Body sent without `Content-Length` (411).
    LengthRequired,
}

impl HttpError {
    /// The response status for this error.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge(_) => 413,
            HttpError::LengthRequired => 411,
        }
    }

    /// Human-readable reason for the error payload.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => format!("bad request: {m}"),
            HttpError::PayloadTooLarge(m) => format!("payload too large: {m}"),
            HttpError::LengthRequired => "content-length required".to_string(),
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => true, // HTTP/1.1 default
        }
    }
}

/// Outcome of a parse attempt over a connection's buffered bytes (see
/// [`try_parse`]).
#[derive(Debug)]
pub enum ParseOutcome {
    /// A complete request, plus the number of buffer bytes it consumed
    /// (pipelined requests may follow at that offset).
    Complete(Request, usize),
    /// The buffer holds only a prefix of a request; read more bytes.
    NeedMore,
    /// The buffered bytes can never become a valid request; answer with
    /// the error's status and close.
    Invalid(HttpError),
}

/// Parses one request from the front of a partially filled buffer
/// without blocking. The head is judged only once its blank line is
/// buffered (a partial header line would otherwise be mistaken for a
/// malformed one), and the body only once `Content-Length` bytes follow
/// it.
pub fn try_parse(buf: &[u8]) -> ParseOutcome {
    let head_end = find_head_end(buf);
    if head_end.unwrap_or(buf.len()) > MAX_HEADER_BYTES {
        return ParseOutcome::Invalid(HttpError::PayloadTooLarge(format!(
            "headers exceed the {MAX_HEADER_BYTES}-byte limit"
        )));
    }
    let Some(head_end) = head_end else {
        return ParseOutcome::NeedMore;
    };
    let request = match parse_head(&buf[..head_end]) {
        Ok(request) => request,
        Err(e) => return ParseOutcome::Invalid(e),
    };
    let content_length = match body_length(&request) {
        Ok(n) => n,
        Err(e) => return ParseOutcome::Invalid(e),
    };
    // Oversized bodies were rejected from the header alone, so this
    // cannot overflow.
    let end = head_end + content_length;
    if buf.len() < end {
        return ParseOutcome::NeedMore;
    }
    ParseOutcome::Complete(Request { body: buf[head_end..end].to_vec(), ..request }, end)
}

/// Parses a complete head: the request line, then header lines up to
/// the blank line that ends it.
fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let mut lines = head.split_inclusive(|&b| b == b'\n').map(|raw| {
        let line = raw.strip_suffix(b"\n").unwrap_or(raw);
        line.strip_suffix(b"\r").unwrap_or(line)
    });

    let request_line = std::str::from_utf8(lines.next().unwrap_or_default())
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version {version}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines.take_while(|line| !line.is_empty()) {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::PayloadTooLarge(format!("more than {MAX_HEADERS} headers")));
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".to_string()))?;
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {text:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request { method, path, headers, body: Vec::new() })
}

/// The body length the head declares.
fn body_length(request: &Request) -> Result<usize, HttpError> {
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::LengthRequired);
    }
    // Reject duplicate Content-Length headers outright (even when equal) —
    // mismatched framing between intermediaries is the classic
    // request-smuggling shape — and accept only pure digit strings:
    // `parse::<usize>` would otherwise admit forms like "+5" that other
    // parsers in the chain may read differently.
    let lengths: Vec<&str> = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str())
        .collect();
    let content_length = match lengths.as_slice() {
        [] => 0,
        [v] => {
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadRequest(format!("bad content-length {v:?}")));
            }
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?
        }
        _ => {
            return Err(HttpError::BadRequest(format!(
                "{} content-length headers in one request",
                lengths.len()
            )))
        }
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    Ok(content_length)
}

/// Index just past the blank line ending the request head, if fully
/// buffered. Accepts CRLF and bare-LF line endings, mixed.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    while let Some(rel) = buf[i..].iter().position(|&b| b == b'\n') {
        let at = i + rel;
        match buf.get(at + 1) {
            Some(b'\n') => return Some(at + 2),
            Some(b'\r') if buf.get(at + 2) == Some(&b'\n') => return Some(at + 3),
            _ => i = at + 1,
        }
        if i >= buf.len() {
            break;
        }
    }
    None
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: serde_json::to_vec(value).unwrap_or_default(),
        }
    }

    /// A JSON error payload `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &serde_json::json!({ "error": message }))
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// Serialises the response onto the end of `out`. Appending to a
    /// `Vec` cannot fail; the `io::Result` is kept for callers that
    /// propagate it.
    pub fn write_to(&self, out: &mut Vec<u8>, keep_alive: bool) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection,
        )?;
        out.extend_from_slice(&self.body);
        Ok(())
    }
}

/// Standard reason phrase for the statuses the service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        409 => "Conflict",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        match try_parse(bytes) {
            ParseOutcome::Complete(request, _) => Ok(Some(request)),
            ParseOutcome::NeedMore => Ok(None),
            ParseOutcome::Invalid(e) => Err(e),
        }
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let req = parse(b"GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Trace: 7\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("x-trace"), Some("7"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn duplicate_equal_content_lengths_rejected() {
        let err = parse(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn duplicate_conflicting_content_lengths_rejected() {
        let err = parse(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n{\"a\"1234567")
            .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn signed_content_length_rejected() {
        // `parse::<usize>` accepts a leading '+'; the framing layer must not.
        let err = parse(b"POST /v1/predict HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
        let err = parse(b"POST /v1/predict HTTP/1.1\r\nContent-Length:\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req =
            parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        let err = parse(b"NONSENSE\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn http2_preface_is_rejected() {
        let err = parse(b"PRI * HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_headers_are_413() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Big: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES)).as_bytes());
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn too_many_headers_are_413() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        let raw =
            format!("POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn chunked_encoding_is_411() {
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn truncated_headers_need_more() {
        assert!(parse(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap().is_none());
    }

    #[test]
    fn response_serialisation_includes_framing() {
        let mut out = Vec::new();
        Response::error(404, "not found").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-type: application/json"));
        assert!(text.contains("connection: keep-alive"));
        assert!(text.ends_with("{\"error\":\"not found\"}"));
    }

    #[test]
    fn lf_only_line_endings_are_accepted() {
        let req = parse(b"GET /metrics HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.path, "/metrics");
    }

    // --- incremental (non-blocking) parsing ---

    #[test]
    fn try_parse_needs_more_on_every_prefix_then_completes() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            assert!(
                matches!(try_parse(&raw[..cut]), ParseOutcome::NeedMore),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        match try_parse(raw) {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.path, "/v1/predict");
                assert_eq!(req.body, b"hello");
                assert_eq!(consumed, raw.len());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_reports_pipelined_request_boundaries() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete(first, consumed) = try_parse(raw) else {
            panic!("first request must parse");
        };
        assert_eq!(first.path, "/healthz");
        let ParseOutcome::Complete(second, rest) = try_parse(&raw[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn try_parse_rejects_malformed_heads_only_once_complete() {
        // A garbage head is NeedMore until terminated, then Invalid.
        assert!(matches!(try_parse(b"NONSENSE"), ParseOutcome::NeedMore));
        match try_parse(b"NONSENSE\r\n\r\n") {
            ParseOutcome::Invalid(e) => assert_eq!(e.status(), 400),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_applies_the_header_and_body_limits() {
        // Unterminated heads blow the header budget.
        let big = vec![b'a'; MAX_HEADER_BYTES + 1];
        match try_parse(&big) {
            ParseOutcome::Invalid(e) => assert_eq!(e.status(), 413),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // A declared oversized body is rejected before it arrives.
        let raw =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        match try_parse(raw.as_bytes()) {
            ParseOutcome::Invalid(e) => assert_eq!(e.status(), 413),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Request smuggling hardening applies unchanged.
        match try_parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbody") {
            ParseOutcome::Invalid(e) => assert_eq!(e.status(), 400),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_handles_lf_only_terminators() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        match try_parse(raw) {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.path, "/healthz");
                assert_eq!(consumed, raw.len());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }
}
