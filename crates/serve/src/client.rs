//! A minimal blocking HTTP/1.1 client, just big enough to exercise the
//! server: one request per call over a fresh connection, or a reusable
//! keep-alive connection for load generation.
//!
//! Shared by the integration tests, the smoke example, and the load
//! benchmark so all three speak bytes through the same code path.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code, headers (lowercased names), body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header names (lowercased) and values.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Errors a client call can hit.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failed or timed out.
    Io(std::io::Error),
    /// The response bytes were not parseable HTTP.
    BadResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` with the given per-call socket timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
        }
    }

    /// Sends one request on the keep-alive connection (reconnecting if the
    /// server closed it) and reads the full response.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        // One transparent retry on a dead cached connection: the server
        // may have closed it between calls (max_requests_per_conn, drain).
        if self.conn.is_some() {
            match self.try_call(method, path, body) {
                Ok(resp) => return Ok(resp),
                Err(_) => self.conn = None,
            }
        }
        self.try_call(method, path, body)
    }

    fn try_call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Head and body go out in separate writes; Nagle + delayed
            // ACK would otherwise stall each request ~40 ms.
            stream.set_nodelay(true)?;
            self.conn = Some(stream);
        }
        let Some(stream) = self.conn.as_mut() else {
            return Err(ClientError::BadResponse("no connection"));
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: flexpath\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let sent = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .and_then(|()| stream.flush());
        let resp = match sent {
            Ok(()) => read_response(stream),
            // The server answered and closed before reading the request (a
            // door shed): read what it answered. A timed-out write is not
            // read after, which would wait out a second timeout.
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
                read_response(stream).map_err(|_| e.into())
            }
            Err(e) => Err(e.into()),
        };
        // Drop the cached connection on any error, and when the server
        // announced it is closing its side.
        let keep = matches!(&resp, Ok(r) if r.header("connection") != Some("close"));
        if !keep {
            self.conn = None;
        }
        resp
    }
}

/// One-shot helper: fresh connection, one request, response.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    Client::connect(addr, timeout).call(method, path, body)
}

/// Reads one `Content-Length`-framed response.
fn read_response(stream: &mut TcpStream) -> Result<ClientResponse, ClientError> {
    let mut buf = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 1 << 20 {
            return Err(ClientError::BadResponse("response head too large"));
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::BadResponse("connection closed mid-response"));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
    };
    let head = buf.get(..head_end).unwrap_or(&[]).to_vec();
    let mut body: Vec<u8> = buf.split_off(head_end + 4);

    let head = String::from_utf8(head).map_err(|_| ClientError::BadResponse("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ClientError::BadResponse("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ClientError::BadResponse("bad content-length"))?;
            }
            headers.push((name, value));
        }
    }
    if content_length > 1 << 26 {
        return Err(ClientError::BadResponse("response body too large"));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::BadResponse("body shorter than declared"));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
    }
    body.truncate(content_length);
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_timed_out_write_is_returned_without_reading() {
        // The peer answers at once and never reads, so the body fills both
        // socket buffers and the write times out. Had the client gone on
        // to read, it would have found this answer; against a silent peer
        // that read would wait out a second timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept()?;
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")?;
            Ok::<_, std::io::Error>(conn)
        });
        let err = Client::connect(addr, Duration::from_millis(200))
            .call("POST", "/query", &vec![b' '; 16 << 20])
            .unwrap_err();
        let kind = match &err {
            ClientError::Io(e) => e.kind(),
            other => panic!("{other:?}"),
        };
        assert!(
            matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err:?}"
        );
        drop(peer.join().unwrap());
    }
}
