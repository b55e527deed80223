//! A minimal, hardened HTTP/1.1 layer over `std::net` — request parsing
//! and response writing for the query service.
//!
//! This is deliberately not a general web server: it parses exactly the
//! subset the service speaks (GET/POST/HEAD, `Content-Length` bodies) and
//! treats everything else as a *typed* error that maps to a 4xx/5xx
//! response. The robustness contract mirrors the store's: no input byte
//! stream — truncated, oversized, slow-lorised, or garbage — may cause a
//! panic or an unbounded read. Limits come from [`HttpLimits`]; wall-clock
//! bounds come from the socket read/write timeouts the server installs.

use std::io::{Read, Write};
use std::time::Duration;

/// Byte-size limits for one request. Defaults are generous for query
/// payloads and small enough that a malicious client cannot balloon
/// per-connection memory.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Cap on the request head (request line + headers), in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`, in bytes.
    pub max_body_bytes: u64,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Request methods the service accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD` (served like `GET` with the body suppressed)
    Head,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

/// One parsed request: method, path (query string split off), and body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The path component of the request target (before any `?`).
    pub path: String,
    /// The raw query string (after `?`), empty when absent.
    pub query: String,
    /// Header names (lowercased) and values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Bytes beyond `Content-Length` arrived with this request — a
    /// pipelined next request this server does not support. They were
    /// discarded, so the connection is desynchronized and must be closed
    /// after responding (the pipelining client sees the close and retries
    /// instead of hanging on a response that will never come).
    pub pipelined_excess: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Every way reading one request can fail. Each variant maps to a fixed
/// HTTP status via [`HttpError::status`]; none of them panics.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending any bytes — the
    /// normal end of a keep-alive session, not an error response.
    ConnectionClosed,
    /// The socket read/write failed or timed out mid-request.
    Io(std::io::Error),
    /// The socket timed out waiting for the rest of a started request.
    Timeout,
    /// Request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// The method is none of GET / POST / HEAD.
    MethodUnknown,
    /// The version is not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion,
    /// A header line has no `:` separator or non-ASCII name.
    BadHeader,
    /// The head (request line + headers) exceeded the size cap.
    HeadTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// `Content-Length` is not a decimal number, or is repeated with
    /// differing values.
    BadContentLength,
    /// The declared body exceeds the size cap.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: u64,
        /// The configured cap in bytes.
        limit: u64,
    },
    /// `Transfer-Encoding` was sent; the service only reads
    /// `Content-Length` bodies.
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The response status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::ConnectionClosed | HttpError::Io(_) => 400,
            HttpError::Timeout => 408,
            HttpError::BadRequestLine | HttpError::BadHeader | HttpError::BadContentLength => 400,
            HttpError::MethodUnknown => 405,
            HttpError::UnsupportedVersion => 505,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::MethodUnknown => write!(f, "method not allowed"),
            HttpError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BadContentLength => write!(f, "unparseable or conflicting Content-Length"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds cap of {limit}")
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding not supported; send Content-Length")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            std::io::ErrorKind::UnexpectedEof => HttpError::ConnectionClosed,
            _ => HttpError::Io(e),
        }
    }
}

/// Reads and parses one request from `stream`.
///
/// The caller is responsible for having installed socket read timeouts;
/// a timeout mid-request surfaces as [`HttpError::Timeout`]. A clean EOF
/// before the first byte surfaces as [`HttpError::ConnectionClosed`].
pub fn read_request(stream: &mut impl Read, limits: &HttpLimits) -> Result<Request, HttpError> {
    let (head, mut leftover) = read_head(stream, limits)?;
    let mut lines = head.split(|b| *b == b'\n').map(|l| {
        let l = l.strip_suffix(b"\r").unwrap_or(l);
        std::str::from_utf8(l).map_err(|_| HttpError::BadHeader)
    });
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)??;
    let (method, path, query) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |n: &str| {
        headers
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    // Repeated `Content-Length` headers must agree: with differing values
    // the body's end is ambiguous, and a proxy that reads the other one
    // would frame the connection differently.
    let mut lengths = headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length: u64 = match lengths.next() {
        Some(v) if lengths.all(|other| other == v) => {
            v.parse().map_err(|_| HttpError::BadContentLength)?
        }
        Some(_) => return Err(HttpError::BadContentLength),
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body_bytes,
        });
    }

    // Body: whatever arrived with the head, then read the rest exactly.
    let mut body = std::mem::take(&mut leftover);
    let want = content_length as usize;
    let pipelined_excess = body.len() > want;
    if pipelined_excess {
        // Pipelined extra bytes are not supported; the flag forces the
        // connection closed after this response so the client notices
        // (keep-alive would silently eat its next request).
        body.truncate(want);
    }
    while body.len() < want {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "body shorter than Content-Length",
            )));
        }
        let take = n.min(want - body.len());
        body.extend_from_slice(chunk.get(..take).unwrap_or(&[]));
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        pipelined_excess,
    })
}

/// Reads bytes until the `\r\n\r\n` head terminator, returning the head
/// and any body bytes read past it. A head longer than `max_head_bytes`,
/// terminator included, is refused however the bytes arrive.
fn read_head(stream: &mut impl Read, limits: &HttpLimits) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let too_large = || HttpError::HeadTooLarge {
        limit: limits.max_head_bytes,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    // No terminator starts before `searched`, so a head trickled in byte by
    // byte is scanned once, not once per read.
    let mut searched = 0;
    loop {
        if let Some(end) = find_head_end(&buf, searched) {
            if end + 4 > limits.max_head_bytes {
                return Err(too_large());
            }
            let leftover = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok((buf, leftover));
        }
        if buf.len() >= limits.max_head_bytes {
            return Err(too_large());
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::ConnectionClosed);
            }
            return Err(HttpError::BadRequestLine);
        }
        // A terminator completed by the new bytes starts at most three
        // bytes before them.
        searched = buf.len().saturating_sub(3);
        buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
    }
}

/// Index of the first `\r\n\r\n` terminator in `buf` that starts at or
/// after `from`, if present.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let tail = buf.get(from..)?;
    tail.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i)
}

/// Splits `METHOD SP TARGET SP HTTP/1.x` into its typed parts.
fn parse_request_line(line: &str) -> Result<(Method, String, String), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion);
    }
    let method = Method::parse(method).ok_or(HttpError::MethodUnknown)?;
    if !target.starts_with('/') {
        return Err(HttpError::BadRequestLine);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok((method, path, query))
}

/// A response under construction: status, content type, extra headers,
/// and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`) appended verbatim.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Appends a `Retry-After: <seconds>` hint.
    pub fn retry_after(mut self, seconds: u64) -> Response {
        self.headers.push(("Retry-After", seconds.to_string()));
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Response",
        }
    }

    /// Serializes the response (status line, headers, body) to `stream`.
    /// `head_only` suppresses the body for HEAD requests while keeping the
    /// `Content-Length` the GET would have had.
    pub fn write_to(
        &self,
        stream: &mut impl Write,
        head_only: bool,
        close: bool,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        stream.write_all(head.as_bytes())?;
        if !head_only {
            stream.write_all(&self.body)?;
        }
        stream.flush()
    }
}

/// Installs read/write timeouts on a TCP stream; errors are I/O-level and
/// returned typed.
pub fn install_timeouts(
    stream: &std::net::TcpStream,
    read: Duration,
    write: Duration,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(read))?;
    stream.set_write_timeout(Some(write))?;
    // Responses are written as head + body in separate syscalls; without
    // NODELAY, Nagle + delayed ACK adds ~40 ms stalls per request.
    stream.set_nodelay(true)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor, &HttpLimits::default())
    }

    #[test]
    fn parses_get_with_query_string() {
        let r = parse(b"GET /metrics?format=json HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/metrics");
        assert_eq!(r.query, "format=json");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn malformed_inputs_yield_typed_errors_not_panics() {
        assert!(matches!(parse(b""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(
            parse(b"garbage\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(HttpError::MethodUnknown)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::UnsupportedVersion)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding)
        ));
        assert!(matches!(
            parse(b"GET noslash HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        // Truncated head (no terminator before EOF).
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: x"),
            Err(HttpError::BadRequestLine)
        ));
    }

    #[test]
    fn size_limits_are_enforced() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let mut big_head =
            std::io::Cursor::new([b"GET / HTTP/1.1\r\n".as_slice(), &[b'a'; 100]].concat());
        assert!(matches!(
            read_request(&mut big_head, &limits),
            Err(HttpError::HeadTooLarge { .. })
        ));
        let mut big_body =
            std::io::Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".to_vec());
        assert!(matches!(
            read_request(&mut big_body, &limits),
            Err(HttpError::BodyTooLarge {
                declared: 9,
                limit: 8
            })
        ));
    }

    #[test]
    fn pipelined_extra_bytes_flag_the_connection_for_close() {
        let r = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdPOST /query HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body, b"abcd");
        assert!(r.pipelined_excess, "excess bytes must force close");
        let exact = parse(b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert!(!exact.pipelined_excess);
    }

    #[test]
    fn body_shorter_than_declared_is_a_typed_error() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn responses_serialize_with_status_and_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .retry_after(3)
            .write_to(&mut out, false, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn head_only_suppresses_body() {
        let mut out = Vec::new();
        Response::text(200, "hello".into())
            .write_to(&mut out, true, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "{text}");
    }

    #[test]
    fn every_error_maps_to_a_4xx_or_5xx() {
        for e in [
            HttpError::Timeout,
            HttpError::BadRequestLine,
            HttpError::MethodUnknown,
            HttpError::UnsupportedVersion,
            HttpError::BadHeader,
            HttpError::HeadTooLarge { limit: 1 },
            HttpError::BadContentLength,
            HttpError::BodyTooLarge {
                declared: 2,
                limit: 1,
            },
            HttpError::UnsupportedTransferEncoding,
        ] {
            assert!((400..=599).contains(&e.status()), "{e}: {}", e.status());
        }
    }
}
