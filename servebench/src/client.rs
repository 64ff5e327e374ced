//! The HTTP client and the closed loop. A request's clock runs from its
//! first byte written to the last byte of the final response; a `202`
//! (no synchronous wait slot) is polled until the job is terminal.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use crate::workload::Request;

/// A request is a failure once it has taken this long.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One request/response exchange and its client-side spans.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Status of the final response (the polled job's, after a `202`).
    pub status: u16,
    /// Body of the final response.
    pub body: Vec<u8>,
    /// First request byte to last request byte.
    pub upload: Duration,
    /// Last request byte to first response byte.
    pub wait: Duration,
    /// First to last byte of the first response.
    pub download: Duration,
    /// First request byte to last byte of the final response.
    pub total: Duration,
    /// `GET /v1/jobs/{id}` polls after a `202`.
    pub polls: u32,
}

/// Sends one pre-serialized request and reads its response.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Exchange, String> {
    let mut stream = connect(addr)?;
    let start = Instant::now();
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    let sent = Instant::now();
    let (status, body, first_byte) = read_response(&mut stream)?;
    let done = Instant::now();
    let mut exchange = Exchange {
        status,
        body,
        upload: sent - start,
        wait: first_byte - sent,
        download: done - first_byte,
        total: done - start,
        polls: 0,
    };
    if status == 202 {
        poll_until_terminal(addr, start, &mut exchange)?;
    }
    Ok(exchange)
}

/// `GET path`, returning status and body.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = connect(addr)?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: servebench\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let (status, body, _) = read_response(&mut stream)?;
    Ok((status, body))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    Ok(stream)
}

/// Reads one `Content-Length` response: status, body and the instant the
/// first byte arrived.
fn read_response(stream: &mut TcpStream) -> Result<(u16, Vec<u8>, Instant), String> {
    let mut raw: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    let mut first_byte = None;
    let mut framing: Option<(usize, usize)> = None; // (head length, body length)
    loop {
        let read = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if read == 0 {
            return Err("connection closed before the response ended".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&chunk[..read]);
        if framing.is_none() {
            framing = parse_head(&raw)?;
        }
        if let Some((head, length)) = framing {
            if raw.len() >= head + length {
                let status = parse_status(&raw)?;
                let body = raw[head..head + length].to_vec();
                return Ok((status, body, first_byte.expect("set on the first read")));
            }
        }
    }
}

fn parse_status(raw: &[u8]) -> Result<u16, String> {
    std::str::from_utf8(&raw[..raw.len().min(32)])
        .ok()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| "bad status line".to_string())
}

/// Once the head is complete: its length and the `Content-Length`.
fn parse_head(raw: &[u8]) -> Result<Option<(usize, usize)>, String> {
    let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&raw[..end]);
    let length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or("response has no Content-Length")?;
    Ok(Some((end + 4, length)))
}

/// Polls the job of a `202` answer until it is terminal, then stops the
/// clock.
fn poll_until_terminal(
    addr: SocketAddr,
    start: Instant,
    exchange: &mut Exchange,
) -> Result<(), String> {
    let job = crate::json::parse(&exchange.body)?
        .num_at(&["job"])
        .ok_or("202 answer without a job id")? as u64;
    loop {
        if start.elapsed() > REQUEST_TIMEOUT {
            return Err(format!("job {job} not terminal after {REQUEST_TIMEOUT:?}"));
        }
        thread::sleep(Duration::from_millis(5));
        let (status, body) = get(addr, &format!("/v1/jobs/{job}"))?;
        exchange.polls += 1;
        let terminal = status != 200 || {
            let state = crate::json::parse(&body)?;
            matches!(
                state.at(&["status"]).and_then(crate::json::Value::str),
                Some("done" | "failed")
            )
        };
        if terminal {
            exchange.status = status;
            exchange.body = body;
            exchange.total = start.elapsed();
            return Ok(());
        }
    }
}

/// One request of a closed loop: which input, and what came back.
#[derive(Debug)]
pub struct Sample {
    pub input: usize,
    pub result: Result<Exchange, String>,
}

/// The timed window of a closed loop.
#[derive(Debug)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// From the common start to the last completion.
    pub elapsed: Duration,
    /// The generated inputs ran out before the deadline.
    pub exhausted: bool,
}

/// Runs `clients` closed-loop clients: each sends its next request as soon
/// as the previous one completes, until `duration` has passed. Inputs are
/// taken in order; with `cycle` they are reused round-robin, otherwise the
/// loop stops when they run out.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &[Request],
    clients: usize,
    duration: Duration,
    cycle: bool,
) -> Window {
    let next = AtomicUsize::new(0);
    let start_line = Barrier::new(clients + 1);
    let mut start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Instant, bool)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, start_line) = (&next, &start_line);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    start_line.wait();
                    let begun = Instant::now();
                    let mut last = begun;
                    let mut exhausted = false;
                    while last - begun < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if !cycle && index >= inputs.len() {
                            exhausted = true;
                            break;
                        }
                        let input = index % inputs.len();
                        let result = exchange(addr, &inputs[input].wire);
                        last = Instant::now();
                        samples.push(Sample { input, result });
                    }
                    (samples, last, exhausted)
                })
            })
            .collect();
        start_line.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, last, _)| *last)
        .max()
        .unwrap_or(start);
    let exhausted = per_client.iter().any(|(_, _, exhausted)| *exhausted);
    let mut samples: Vec<Sample> = per_client
        .into_iter()
        .flat_map(|(samples, _, _)| samples)
        .collect();
    samples.sort_by_key(|sample| sample.input);
    Window {
        samples,
        elapsed: end.saturating_duration_since(start),
        exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_are_framed_by_content_length() {
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap(), None);
        let raw = b"HTTP/1.1 202 Accepted\r\ncontent-length: 12\r\n\r\n{\"job\":3}";
        assert_eq!(parse_head(raw).unwrap(), Some((45, 12)));
        assert_eq!(parse_status(raw).unwrap(), 202);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n").is_err());
    }
}
