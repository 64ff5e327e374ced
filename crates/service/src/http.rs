//! Hand-rolled HTTP/1.1 request parsing and response writing over
//! `std::net` (the build environment has no crate registry, so there is no
//! hyper/axum; the grammar implemented here is the small subset the service
//! needs: request line, headers, `Content-Length` bodies, query strings).

use std::fmt;
use std::io::{self, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Wall-clock budget for receiving the request head. The socket's
/// per-read timeout resets on every byte, so without a cumulative
/// deadline a client dribbling one byte per timeout window could park an
/// acceptor for days (16 KB head × 30 s/byte ≈ 5 days).
pub const HEAD_DEADLINE: Duration = Duration::from_secs(10);

/// Wall-clock budget for receiving the request body, measured from the
/// end of the head. Generous enough for a legitimately slow client to
/// push the maximum body (64 MB in ~2 minutes is ~0.5 MB/s), but bounded.
pub const BODY_DEADLINE: Duration = Duration::from_secs(120);

/// How long a kept-alive connection may sit idle between requests before
/// the server closes it. Much shorter than [`HEAD_DEADLINE`]: an idle
/// keep-alive connection parks an acceptor, and a well-behaved client that
/// wants another request sends it immediately.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Errors surfaced while reading a request (mapped to 4xx responses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or headers were not parseable HTTP/1.1.
    Malformed(String),
    /// The head or declared body exceeded the configured limits.
    TooLarge(String),
    /// The request was not received within its wall-clock deadline.
    Timeout(String),
    /// The socket failed mid-request.
    Io(String),
    /// The connection ended (or went idle past its deadline) before a
    /// single byte of a new request arrived — a clean end of a kept-alive
    /// connection, not an error worth a response.
    Closed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::TooLarge(detail) => write!(f, "request too large: {detail}"),
            HttpError::Timeout(detail) => write!(f, "request timed out: {detail}"),
            HttpError::Io(detail) => write!(f, "request read failed: {detail}"),
            HttpError::Closed => write!(f, "connection closed between requests"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Parsed request line and headers; the body (if any) is read separately
/// through [`RequestHead::body_reader`] so large edge lists stream straight
/// from the socket into the graph parser.
#[derive(Debug)]
pub struct RequestHead {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/v1/color`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Value of `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the client asked for the connection to be closed after this
    /// request (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
    /// Wall-clock deadline for receiving the rest of the body.
    body_deadline: Instant,
    /// Body bytes already consumed from the socket while buffering the head.
    leftover: Vec<u8>,
    /// Bytes of the *next* pipelined request read while buffering this one
    /// (beyond `Content-Length`); [`RequestHead::into_pipelined`] hands them
    /// to the next `read_head` on a kept-alive connection.
    pipelined: Vec<u8>,
    /// Body bytes taken off the socket so far (leftover bytes count when
    /// they are moved into a reader). `content_length - body_consumed` is
    /// what a drain still has to pull from the socket before the connection
    /// can be reused.
    body_consumed: usize,
}

impl RequestHead {
    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// A buffered reader over exactly the (not yet consumed) request body:
    /// the already-read leftover bytes chained with the rest of the socket.
    /// Reads fail once [`BODY_DEADLINE`] has passed since the head was
    /// received, so a dribbling client cannot hold an acceptor
    /// indefinitely. Socket progress is tracked, so a later
    /// [`RequestHead::drain`] knows exactly how many bytes are still
    /// outstanding.
    pub fn body_reader<'h, 's>(&'h mut self, stream: &'s mut TcpStream) -> BodyReader<'h, 's> {
        let leftover = std::mem::take(&mut self.leftover);
        self.body_consumed += leftover.len();
        let remaining = (self.content_length - self.body_consumed) as u64;
        let bounded = DeadlineRead {
            inner: stream,
            deadline: self.body_deadline,
        };
        let counted = CountingRead {
            inner: bounded,
            consumed: &mut self.body_consumed,
        };
        BufReader::new(Cursor::new(leftover).chain(counted.take(remaining)))
    }

    /// Body bytes not yet taken off the socket.
    pub fn unread_body_bytes(&self) -> usize {
        self.content_length - self.body_consumed - self.leftover.len()
    }

    /// Reads and discards whatever part of the body is still on the socket,
    /// returning whether the socket is now positioned at the end of this
    /// request (the precondition for serving another request on the same
    /// connection). Safe to call any number of times, before or after
    /// [`RequestHead::body_reader`].
    pub fn drain(&mut self, stream: &mut TcpStream) -> bool {
        self.body_consumed += self.leftover.len();
        self.leftover.clear();
        let mut remaining = self.content_length - self.body_consumed;
        if remaining == 0 {
            return true;
        }
        // Discard with a manual loop so progress is counted per read: if a
        // read fails partway, `body_consumed` still reflects the true
        // socket position and a later drain resumes exactly where this one
        // stopped (a lost partial count would make a retry over-read into
        // the next pipelined request).
        let mut bounded = DeadlineRead {
            inner: stream,
            deadline: self.body_deadline,
        };
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let want = chunk.len().min(remaining);
            match bounded.read(&mut chunk[..want]) {
                Ok(0) | Err(_) => return false,
                Ok(read) => {
                    self.body_consumed += read;
                    remaining -= read;
                }
            }
        }
        true
    }

    /// Hands over any bytes of the next pipelined request that arrived
    /// while this one was being buffered.
    pub fn into_pipelined(self) -> Vec<u8> {
        self.pipelined
    }
}

/// The streaming request-body reader: leftover bytes buffered with the
/// head, chained with the deadline-bounded, progress-counted remainder of
/// the socket.
pub type BodyReader<'h, 's> = BufReader<
    io::Chain<Cursor<Vec<u8>>, io::Take<CountingRead<'h, DeadlineRead<&'s mut TcpStream>>>>,
>;

/// A reader that records how many bytes it delivered into a caller-owned
/// counter (how [`RequestHead`] learns what a body reader took off the
/// socket).
pub struct CountingRead<'h, R> {
    inner: R,
    consumed: &'h mut usize,
}

impl<R: Read> Read for CountingRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.inner.read(buf)?;
        *self.consumed += read;
        Ok(read)
    }
}

/// A reader that fails with `TimedOut` once a wall-clock deadline passes.
/// The socket's per-read timeout only bounds a single read and resets on
/// every byte; this bounds the whole transfer.
pub struct DeadlineRead<R> {
    inner: R,
    deadline: Instant,
}

impl<R: Read> Read for DeadlineRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "body not received within the request deadline",
            ));
        }
        self.inner.read(buf)
    }
}

/// Decodes `%XX` escapes and `+` (space) in a query component.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    std::str::from_utf8(pair)
                        .ok()
                        .and_then(|s| u8::from_str_radix(s, 16).ok())
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query_string) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let query = query_string
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((key, value)) => (percent_decode(key), percent_decode(value)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    (percent_decode(path), query)
}

/// Reads and parses one request head from the stream. The head must
/// arrive before `head_deadline` (callers pass roughly
/// `Instant::now() + HEAD_DEADLINE`, or `+ KEEPALIVE_IDLE` between
/// requests of a kept-alive connection); the body is separately bounded by
/// [`BODY_DEADLINE`] from the moment the head completes.
///
/// `carry` seeds the buffer with bytes a previous request on the same
/// connection already pulled off the socket (pipelined clients). With
/// `idle_close_ok` (kept-alive connections between requests), an EOF,
/// timeout or read failure *before any byte of a new request* is reported
/// as [`HttpError::Closed`] — a clean end of the connection, not an error.
///
/// # Errors
///
/// [`HttpError::Malformed`] for grammar violations, [`HttpError::TooLarge`]
/// when the head exceeds [`MAX_HEAD_BYTES`] or the declared body exceeds
/// `max_body`, [`HttpError::Timeout`] when the deadline passes first,
/// [`HttpError::Io`] for socket failures, [`HttpError::Closed`] for a
/// clean between-requests close.
pub fn read_head(
    stream: &mut TcpStream,
    max_body: usize,
    head_deadline: Instant,
    carry: Vec<u8>,
    idle_close_ok: bool,
) -> Result<RequestHead, HttpError> {
    let mut buffer = carry;
    buffer.reserve(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buffer) {
            break pos;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        // Cumulative deadline: the per-read socket timeout resets on every
        // byte, so it alone cannot bound a dribbling client.
        if Instant::now() >= head_deadline {
            if idle_close_ok && buffer.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Timeout(
                "headers not received within the request deadline".to_string(),
            ));
        }
        let read = match stream.read(&mut chunk) {
            Ok(read) => read,
            Err(error) => {
                if idle_close_ok && buffer.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Io(error.to_string()));
            }
        };
        if read == 0 {
            if buffer.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed(
                "connection closed before end of headers".to_string(),
            ));
        }
        buffer.extend_from_slice(&chunk[..read]);
    };

    let head_text = String::from_utf8_lossy(&buffer[..head_end]).into_owned();
    let rest = &buffer[head_end + 4..];
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }

    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // `Connection:` header overrides either way.
    let mut close = version == "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{line}`")));
        };
        // Ambiguous framing is rejected outright (RFC 9112 §6.3): on a
        // kept-alive connection, a body length the client did not mean
        // would read the rest of its body as the next request.
        if name.trim().eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let length = match value.parse::<usize>() {
                Ok(length) if value.bytes().all(|byte| byte.is_ascii_digit()) => length,
                _ => {
                    return Err(HttpError::Malformed(format!(
                        "bad Content-Length `{value}`"
                    )))
                }
            };
            if content_length.is_some_and(|previous| previous != length) {
                return Err(HttpError::Malformed(
                    "conflicting Content-Length headers".to_string(),
                ));
            }
            content_length = Some(length);
        }
        if name.trim().eq_ignore_ascii_case("connection") {
            let value = value.trim().to_ascii_lowercase();
            if value.split(',').any(|token| token.trim() == "close") {
                close = true;
            } else if value.split(',').any(|token| token.trim() == "keep-alive") {
                close = false;
            }
        }
        // Chunked bodies are not decodable here; rejecting explicitly beats
        // misreading the body as empty and resetting the connection.
        if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(format!(
                "Transfer-Encoding `{}` is not supported; send a Content-Length body",
                value.trim()
            )));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "declared body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }

    // Split the already-buffered remainder into this request's body prefix
    // and any pipelined bytes of the next request.
    let body_bytes = content_length.min(rest.len());
    let leftover = rest[..body_bytes].to_vec();
    let pipelined = rest[body_bytes..].to_vec();

    let (path, query) = parse_target(target);
    Ok(RequestHead {
        method,
        path,
        query,
        content_length,
        close,
        body_deadline: Instant::now() + BODY_DEADLINE,
        leftover,
        pipelined,
        body_consumed: 0,
    })
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|window| window == b"\r\n\r\n")
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Standard reason phrase for the status code.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes the response onto the stream, advertising
    /// `Connection: keep-alive` or `Connection: close` according to whether
    /// the server will serve another request on this connection.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_targets_and_query_strings() {
        let (path, query) = parse_target("/v1/color?alpha=2&runtime=parallel&flag");
        assert_eq!(path, "/v1/color");
        assert_eq!(
            query,
            vec![
                ("alpha".to_string(), "2".to_string()),
                ("runtime".to_string(), "parallel".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        let (path, query) = parse_target("/plain");
        assert_eq!(path, "/plain");
        assert!(query.is_empty());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%2f%3D"), "/=");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn deadline_read_cuts_off_slow_transfers() {
        let mut fast = DeadlineRead {
            inner: Cursor::new(b"0 1\n".to_vec()),
            deadline: Instant::now() + Duration::from_secs(60),
        };
        let mut out = String::new();
        fast.read_to_string(&mut out).unwrap();
        assert_eq!(out, "0 1\n");

        let mut expired = DeadlineRead {
            inner: Cursor::new(b"0 1\n".to_vec()),
            deadline: Instant::now() - Duration::from_secs(1),
        };
        let error = expired.read_to_string(&mut String::new()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn read_head_enforces_its_deadline() {
        // A client that sends a partial head and then dribbles must be cut
        // off by the cumulative deadline, not held by per-read timeouts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        std::io::Write::write_all(&mut client, b"GET / HT").unwrap();
        server_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // The deadline has already passed: the incomplete head times out
        // instead of waiting for more bytes.
        let error = read_head(
            &mut server_side,
            1024,
            Instant::now() - Duration::from_secs(1),
            Vec::new(),
            false,
        )
        .unwrap_err();
        assert!(matches!(error, HttpError::Timeout(_)), "{error}");
        // Between requests of a kept-alive connection the same expiry is a
        // clean close, not a timeout worth a 408.
        let error = read_head(
            &mut server_side,
            1024,
            Instant::now() - Duration::from_secs(1),
            Vec::new(),
            true,
        )
        .unwrap_err();
        assert_eq!(error, HttpError::Closed);
        drop(client);
    }

    #[test]
    fn drain_counts_partial_progress_across_retries() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // 8-byte body, only 4 bytes sent so far.
        let wire = "POST /v1/color HTTP/1.1\r\nContent-Length: 8\r\n\r\n0 1\n";
        std::io::Write::write_all(&mut client, wire.as_bytes()).unwrap();
        let mut head = read_head(
            &mut server_side,
            1024,
            Instant::now() + Duration::from_secs(5),
            Vec::new(),
            false,
        )
        .unwrap();
        // First drain discards the 4 available bytes, then times out — it
        // must report failure but keep the partial progress.
        assert!(!head.drain(&mut server_side));
        assert_eq!(head.unread_body_bytes(), 4);
        // The client resumes: rest of the body plus a pipelined request.
        std::io::Write::write_all(&mut client, b"2 3\nGET /healthz HTTP/1.1\r\n\r\n").unwrap();
        // The retried drain consumes exactly the 4 outstanding bytes and
        // leaves the socket aligned on the pipelined request head.
        assert!(head.drain(&mut server_side));
        assert_eq!(head.unread_body_bytes(), 0);
        let head = read_head(
            &mut server_side,
            1024,
            Instant::now() + Duration::from_secs(5),
            head.into_pipelined(),
            true,
        )
        .unwrap();
        assert_eq!(head.path, "/healthz");
        drop(client);
    }

    #[test]
    fn read_head_parses_connection_and_pipelined_bytes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        // One POST with a 4-byte body, immediately followed by a pipelined
        // GET with Connection: close.
        let wire = "POST /v1/color HTTP/1.1\r\nContent-Length: 4\r\n\r\n0 1\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        std::io::Write::write_all(&mut client, wire.as_bytes()).unwrap();
        let mut head = read_head(
            &mut server_side,
            1024,
            Instant::now() + Duration::from_secs(5),
            Vec::new(),
            false,
        )
        .unwrap();
        assert_eq!(head.method, "POST");
        assert!(!head.close, "HTTP/1.1 defaults to keep-alive");
        let mut body = Vec::new();
        head.body_reader(&mut server_side)
            .read_to_end(&mut body)
            .unwrap();
        assert_eq!(body, b"0 1\n");
        assert!(head.drain(&mut server_side), "body fully consumed");
        assert_eq!(head.unread_body_bytes(), 0);
        let carry = head.into_pipelined();
        assert!(!carry.is_empty(), "pipelined GET was buffered");
        let head = read_head(
            &mut server_side,
            1024,
            Instant::now() + Duration::from_secs(5),
            carry,
            true,
        )
        .unwrap();
        assert_eq!(head.path, "/healthz");
        assert!(head.close, "Connection: close honored");
        // Ambiguous body framing is malformed: two differing lengths, or a
        // length that is not all digits (`usize::from_str` accepts `+4`).
        for wire in [
            "POST /v1/color HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\n0 1\n",
            "POST /v1/color HTTP/1.1\r\nContent-Length: +4\r\n\r\n0 1\n",
        ] {
            let error = read_head(
                &mut server_side,
                1024,
                Instant::now() + Duration::from_secs(5),
                wire.as_bytes().to_vec(),
                true,
            )
            .unwrap_err();
            assert!(
                matches!(error, HttpError::Malformed(_)),
                "{wire:?}: {error}"
            );
        }
        drop(client);
    }
}
