//! Plain-text edge-list parsing and writing.
//!
//! [`parse_edge_list`], [`read_edge_list`] and [`read_edge_list_bounded`]
//! share one parser. It takes a [`BufRead`] source's buffers through
//! `fill_buf`/`consume` and reads each line where it lies; only a line
//! split across two buffers is copied, into one carry buffer. A line of the
//! plain form `digits ' ' digits '\n'` (as [`write_edge_list`] writes edges)
//! is folded straight from the bytes; any other line is decoded as UTF-8
//! and read as a `&str`.
//!
//! The grammar, line by line (lines end at `\n` and count from 1):
//!
//! * Whitespace is what `char::is_whitespace` accepts: in ASCII the six
//!   bytes `\t \n \x0B \x0C \r` and space, beyond it Unicode spaces such as
//!   a no-break space. It trims a line and separates its tokens.
//! * Blank lines, lines starting with `#` or `%`, and DIMACS comments (a
//!   lone `c`, or `c` then a space or tab) are skipped.
//! * Any other line is two node ids separated by whitespace. A node id is
//!   what `str::parse::<usize>` accepts: ASCII digits after an optional `+`.
//! * Errors, first match wins: an invalid first id (including overflow), a
//!   missing second id, an invalid second id, a third token, then an id at
//!   or above the node cap.
//! * A line that is not UTF-8 is [`ParseEdgeListError::Io`] at that line,
//!   as is a failing reader at the line it was reading.

use std::fmt;
use std::io::{BufRead, ErrorKind};

use crate::csr::CsrGraph;
use crate::types::Edge;

/// Error returned by [`parse_edge_list`] and [`read_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEdgeListError {
    /// A line held fewer than two node ids.
    MissingNodeId {
        /// 1-based line number.
        line: usize,
    },
    /// A token was not a non-negative integer node id.
    InvalidNodeId {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A line held more than two node ids.
    TrailingTokens {
        /// 1-based line number.
        line: usize,
    },
    /// A node id exceeded the reader's configured limit (untrusted-input
    /// guard: without it a single line like `0 999999999999` would demand a
    /// terabyte-sized adjacency allocation).
    NodeIdOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending node id.
        id: usize,
        /// The configured limit (ids must be `< limit`).
        limit: usize,
    },
    /// The underlying reader failed (streaming input only).
    Io {
        /// 1-based line number at which the read failed.
        line: usize,
        /// The I/O error rendered as text (kept as a string so the error
        /// stays `Clone + PartialEq` for callers and tests).
        message: String,
    },
}

impl ParseEdgeListError {
    /// The 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        match self {
            ParseEdgeListError::MissingNodeId { line }
            | ParseEdgeListError::InvalidNodeId { line, .. }
            | ParseEdgeListError::TrailingTokens { line }
            | ParseEdgeListError::NodeIdOutOfRange { line, .. }
            | ParseEdgeListError::Io { line, .. } => *line,
        }
    }
}

impl fmt::Display for ParseEdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseEdgeListError::MissingNodeId { line } => {
                write!(
                    f,
                    "edge list parse error on line {line}: expected two node ids"
                )
            }
            ParseEdgeListError::InvalidNodeId { line, token } => {
                write!(
                    f,
                    "edge list parse error on line {line}: invalid node id `{token}`"
                )
            }
            ParseEdgeListError::TrailingTokens { line } => {
                write!(
                    f,
                    "edge list parse error on line {line}: expected exactly two node ids"
                )
            }
            ParseEdgeListError::NodeIdOutOfRange { line, id, limit } => {
                write!(
                    f,
                    "edge list parse error on line {line}: node id {id} exceeds the limit of {limit} nodes"
                )
            }
            ParseEdgeListError::Io { line, message } => {
                write!(f, "edge list read error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseEdgeListError {}

/// The edges read so far, the node count they imply and the lines read.
#[derive(Debug, Default)]
struct EdgeListReader {
    edges: Vec<Edge>,
    /// `max id + 1` (no overflow: every id is below `node_limit`).
    nodes: usize,
    lines_seen: usize,
    node_limit: usize,
}

impl EdgeListReader {
    /// Parses the line at the front of `bytes` and returns the length of the
    /// line and its `\n`, or `None` if `bytes` ends before the `\n`.
    fn line(&mut self, bytes: &[u8]) -> Result<Option<usize>, ParseEdgeListError> {
        if let Some((used, (u, v))) = plain_line(bytes) {
            self.lines_seen += 1;
            self.push(u, v)?;
            return Ok(Some(used));
        }
        let Some(eol) = bytes.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        // The message is std's, as `BufRead::lines` reported it.
        let text = std::str::from_utf8(&bytes[..eol]).map_err(|_| ParseEdgeListError::Io {
            line: self.lines_seen + 1,
            message: "stream did not contain valid UTF-8".to_string(),
        })?;
        self.push_line(text)?;
        Ok(Some(eol + 1))
    }

    /// Reads one line by the grammar in the module docs.
    fn push_line(&mut self, raw_line: &str) -> Result<(), ParseEdgeListError> {
        self.lines_seen += 1;
        let line_number = self.lines_seen;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Ok(());
        }
        // `c`-prefixed comments (DIMACS idiom): only when the token is the
        // single letter, so node ids never collide with it.
        if line == "c" || line.starts_with("c ") || line.starts_with("c\t") {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        let parse = |token: Option<&str>| -> Result<usize, ParseEdgeListError> {
            let token = token.ok_or(ParseEdgeListError::MissingNodeId { line: line_number })?;
            token
                .parse::<usize>()
                .map_err(|_| ParseEdgeListError::InvalidNodeId {
                    line: line_number,
                    token: token.to_string(),
                })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(ParseEdgeListError::TrailingTokens { line: line_number });
        }
        self.push(u, v)
    }

    /// Accepts the current line's edge unless an id breaks the node limit.
    fn push(&mut self, u: usize, v: usize) -> Result<(), ParseEdgeListError> {
        if let Some(&id) = [u, v].iter().find(|&&id| id >= self.node_limit) {
            return Err(ParseEdgeListError::NodeIdOutOfRange {
                line: self.lines_seen,
                id,
                limit: self.node_limit,
            });
        }
        self.nodes = self.nodes.max(u + 1).max(v + 1);
        self.edges.push((u, v));
        Ok(())
    }

    /// Builds the graph on `max id + 1` nodes, or `min_nodes` if larger.
    fn finish(self, min_nodes: usize) -> CsrGraph {
        CsrGraph::from_edge_vec(self.nodes.max(min_nodes), self.edges)
    }
}

/// The fast path of the parser: the line at the front of `bytes` in the
/// plain form `digits ' ' digits '\n'` (as [`write_edge_list`] writes
/// edges), as its length and edge. Any other line gives `None` and is read
/// by [`EdgeListReader::push_line`], which gives a plain line the same edge.
fn plain_line(bytes: &[u8]) -> Option<(usize, Edge)> {
    let (u, at) = plain_id(bytes, 0, b' ')?;
    let (v, at) = plain_id(bytes, at, b'\n')?;
    Some((at, (u, v)))
}

/// Folds the digits at `bytes[start..]` into an id that the byte `end`
/// must follow, returning the id and the index past `end`.
fn plain_id(bytes: &[u8], start: usize, end: u8) -> Option<(usize, usize)> {
    let mut at = start;
    let mut id = 0usize;
    while let Some(&b @ b'0'..=b'9') = bytes.get(at) {
        id = id.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
        at += 1;
    }
    (at > start && bytes.get(at) == Some(&end)).then_some((id, at + 1))
}

/// Parses a whitespace-separated edge list held in memory, by the line
/// grammar set out at the top of `io.rs`. The node count is `max id + 1`
/// unless a larger `min_nodes` is given.
///
/// # Errors
///
/// Returns a [`ParseEdgeListError`] pointing at the first malformed line.
///
/// # Examples
///
/// ```
/// let text = "# a triangle\n0 1\n1 2\n2 0\n";
/// let graph = sparse_graph::parse_edge_list(text, 0)?;
/// assert_eq!(graph.num_nodes(), 3);
/// assert_eq!(graph.num_edges(), 3);
/// # Ok::<(), sparse_graph::ParseEdgeListError>(())
/// ```
pub fn parse_edge_list(text: &str, min_nodes: usize) -> Result<CsrGraph, ParseEdgeListError> {
    read_edge_list(text.as_bytes(), min_nodes)
}

/// Streams a whitespace-separated edge list from any [`BufRead`] source
/// (file, socket body, …) without materializing the text first. Same
/// grammar as [`parse_edge_list`].
///
/// # Errors
///
/// Returns a [`ParseEdgeListError`] pointing at the first malformed line,
/// or [`ParseEdgeListError::Io`] if the reader itself fails.
pub fn read_edge_list<R: BufRead>(
    reader: R,
    min_nodes: usize,
) -> Result<CsrGraph, ParseEdgeListError> {
    read_edge_list_bounded(reader, min_nodes, usize::MAX)
}

/// Like [`read_edge_list`], but rejecting node ids `>= max_nodes` — the
/// entry point for untrusted sources (e.g. an HTTP request body), where an
/// attacker-chosen node id must not dictate the adjacency allocation.
///
/// # Errors
///
/// As [`read_edge_list`], plus [`ParseEdgeListError::NodeIdOutOfRange`].
pub fn read_edge_list_bounded<R: BufRead>(
    mut reader: R,
    min_nodes: usize,
    max_nodes: usize,
) -> Result<CsrGraph, ParseEdgeListError> {
    let mut parser = EdgeListReader {
        node_limit: max_nodes,
        ..EdgeListReader::default()
    };
    // The front of a line that the previous buffer ended inside.
    let mut carry = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(error) if error.kind() == ErrorKind::Interrupted => continue,
            Err(error) => {
                let (line, message) = (parser.lines_seen + 1, error.to_string());
                return Err(ParseEdgeListError::Io { line, message });
            }
        };
        let mut at = 0;
        if !carry.is_empty() {
            at = buf
                .iter()
                .position(|&b| b == b'\n')
                .map_or(buf.len(), |eol| eol + 1);
            carry.extend_from_slice(&buf[..at]);
            if carry.ends_with(b"\n") {
                parser.line(&carry)?;
                carry.clear();
            }
        }
        while let Some(used) = parser.line(&buf[at..])? {
            at += used;
        }
        carry.extend_from_slice(&buf[at..]);
        let len = buf.len();
        reader.consume(len);
    }
    if !carry.is_empty() {
        carry.push(b'\n');
        parser.line(&carry)?;
    }
    Ok(parser.finish(min_nodes))
}

/// Writes the graph as a canonical edge list (one `u v` pair per line, with a
/// leading comment recording `n` and `m`).
pub fn write_edge_list(graph: &CsrGraph) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# nodes: {} edges: {}\n",
        graph.num_nodes(),
        graph.num_edges()
    ));
    for (u, v) in graph.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read};

    /// A reader without a node cap, and its edge count.
    impl EdgeListReader {
        fn new() -> Self {
            EdgeListReader {
                node_limit: usize::MAX,
                ..EdgeListReader::default()
            }
        }

        fn num_edges(&self) -> usize {
            self.edges.len()
        }
    }

    /// The per-line reading the byte-level loop replaced, kept as its
    /// oracle: `BufRead::lines`, one `String` per line, into
    /// [`EdgeListReader::push_line`].
    fn read_lines_oracle<R: BufRead>(
        reader: R,
        max_nodes: usize,
    ) -> Result<CsrGraph, ParseEdgeListError> {
        let mut parser = EdgeListReader {
            node_limit: max_nodes,
            ..EdgeListReader::default()
        };
        for line in reader.lines() {
            let line = line.map_err(|error| ParseEdgeListError::Io {
                line: parser.lines_seen + 1,
                message: error.to_string(),
            })?;
            parser.push_line(&line)?;
        }
        Ok(parser.finish(0))
    }

    /// A source that hands out 1–7 bytes per buffer, answers every other
    /// `fill_buf` with `Interrupted`, and fails for good once `fail_at`
    /// bytes have been consumed.
    struct Trickle<'a> {
        bytes: &'a [u8],
        at: usize,
        step: usize,
        fail_at: usize,
        interrupt: bool,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], step: usize, fail_at: usize) -> Self {
            Trickle {
                bytes,
                at: 0,
                step,
                fail_at,
                interrupt: false,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Trickle<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.at >= self.fail_at {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "connection reset",
                ));
            }
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let chunk = 1 + (self.at * 13 + self.step) % 7;
            let end = (self.at + chunk).min(self.fail_at).min(self.bytes.len());
            Ok(&self.bytes[self.at..end])
        }

        fn consume(&mut self, amount: usize) {
            self.at += amount;
        }
    }

    /// The byte-level parser against the per-line oracle on 2,000 fuzzed
    /// bodies: mutated valid documents and byte soup over digits, `+ - # %
    /// c`, the six whitespace bytes, a no-break space and a bare `\xff`.
    /// Every body is read whole and through 1–7-byte buffers, so each token
    /// and each `\r\n` straddles a buffer edge somewhere, and once more
    /// through a reader that fails part-way. Graphs must be equal, or
    /// errors equal in variant, line and token.
    #[test]
    fn byte_parser_matches_the_line_parser_oracle() {
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        let mut pieces: Vec<&[u8]> = b"0123456789+-#%c\t\n\x0B\x0C\r ".chunks(1).collect();
        pieces.extend(["\u{a0}".as_bytes(), &b"\xff"[..]]);
        let overflow: [&[u8]; 2] = [b"18446744073709551615", b"18446744073709551616"];
        let valid = "# header\r\nc comment\n0 1\n+1 2\r\n\t2  3 \n% x\n3\x0B4\n\n  4\x0C5\n\
                     c\n6\u{a0}7\n# caf\u{e9}\n012 7\r\n8 9";
        for case in 0..2000 {
            let body: Vec<u8> = if case % 2 == 0 {
                let mut bytes = valid.as_bytes().to_vec();
                for _ in 0..=(next() % 6) {
                    let at = next() % (bytes.len() + 1);
                    let piece = if next() % 16 == 0 {
                        overflow[next() % 2]
                    } else {
                        pieces[next() % pieces.len()]
                    };
                    match next() % 3 {
                        0 if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        1 if at < bytes.len() => {
                            bytes.splice(at..at + 1, piece.iter().copied());
                        }
                        _ => {
                            bytes.splice(at..at, piece.iter().copied());
                        }
                    }
                }
                bytes
            } else {
                (0..next() % 48)
                    .flat_map(|_| pieces[next() % pieces.len()].iter().copied())
                    .collect()
            };
            // A roomy cap as well as tight ones; ids past it would make an
            // unbounded parse allocate that many nodes.
            const ROOMY: usize = 1 << 20;
            let limit = if next() % 4 == 0 {
                ROOMY
            } else {
                1 + next() % 16
            };
            let step = next();

            let expected = read_lines_oracle(body.as_slice(), limit);
            assert_eq!(
                read_edge_list_bounded(body.as_slice(), 0, limit),
                expected,
                "case {case}: whole body {body:?}"
            );
            assert_eq!(
                read_edge_list_bounded(Trickle::new(&body, step, usize::MAX), 0, limit),
                expected,
                "case {case}: trickled body {body:?}"
            );
            // `parse_edge_list` has no node cap: it only gets the bodies whose
            // ids fit the roomy one.
            let text = std::str::from_utf8(&body).ok().filter(|_| {
                !matches!(
                    read_lines_oracle(body.as_slice(), ROOMY),
                    Err(ParseEdgeListError::NodeIdOutOfRange { .. })
                )
            });
            if let Some(text) = text {
                let mut oracle = EdgeListReader::new();
                let expected = text
                    .lines()
                    .try_for_each(|line| oracle.push_line(line))
                    .map(|()| oracle.finish(0));
                assert_eq!(parse_edge_list(text, 0), expected, "case {case}: {text:?}");
            }

            let fail_at = next() % (body.len() + 1);
            assert_eq!(
                read_edge_list_bounded(Trickle::new(&body, step, fail_at), 0, limit),
                read_lines_oracle(Trickle::new(&body, step, fail_at), limit),
                "case {case}: reader failing after {fail_at} bytes of {body:?}"
            );
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# comment\n\n% another\nc dimacs comment\nc\n0 1\n 1 2 \n";
        let g = parse_edge_list(text, 0).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn respects_min_nodes() {
        let g = parse_edge_list("0 1\n", 10).unwrap();
        assert_eq!(g.num_nodes(), 10);
        let empty = parse_edge_list("", 4).unwrap();
        assert_eq!(empty.num_nodes(), 4);
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn reports_malformed_lines() {
        let err = parse_edge_list("0 1\nbroken\n", 0).unwrap_err();
        assert_eq!(
            err,
            ParseEdgeListError::InvalidNodeId {
                line: 2,
                token: "broken".to_string()
            }
        );
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("line 2"));

        let err = parse_edge_list("0\n", 0).unwrap_err();
        assert_eq!(err, ParseEdgeListError::MissingNodeId { line: 1 });

        let err = parse_edge_list("0 1 2\n", 0).unwrap_err();
        assert_eq!(err, ParseEdgeListError::TrailingTokens { line: 1 });
    }

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(ParseEdgeListError, &str)> = vec![
            (
                ParseEdgeListError::MissingNodeId { line: 3 },
                "edge list parse error on line 3: expected two node ids",
            ),
            (
                ParseEdgeListError::InvalidNodeId {
                    line: 7,
                    token: "x9".to_string(),
                },
                "edge list parse error on line 7: invalid node id `x9`",
            ),
            (
                ParseEdgeListError::TrailingTokens { line: 11 },
                "edge list parse error on line 11: expected exactly two node ids",
            ),
            (
                ParseEdgeListError::NodeIdOutOfRange {
                    line: 5,
                    id: 900,
                    limit: 100,
                },
                "edge list parse error on line 5: node id 900 exceeds the limit of 100 nodes",
            ),
            (
                ParseEdgeListError::Io {
                    line: 2,
                    message: "connection reset".to_string(),
                },
                "edge list read error on line 2: connection reset",
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(error.to_string(), expected);
            assert!(error.line() > 0);
        }
    }

    #[test]
    fn c_prefixed_ids_are_not_comments() {
        // A lone `c` or `c ` prefix is a comment; a token *starting* with c
        // is still an invalid id, not silently skipped.
        let err = parse_edge_list("c3 4\n", 0).unwrap_err();
        assert_eq!(
            err,
            ParseEdgeListError::InvalidNodeId {
                line: 1,
                token: "c3".to_string()
            }
        );
    }

    #[test]
    fn node_limit_rejects_huge_ids() {
        let err = read_edge_list_bounded(std::io::Cursor::new("0 1\n2 999999999999\n"), 0, 1000)
            .unwrap_err();
        assert_eq!(
            err,
            ParseEdgeListError::NodeIdOutOfRange {
                line: 2,
                id: 999_999_999_999,
                limit: 1000,
            }
        );
        // In-range ids still parse under a limit.
        let g = read_edge_list_bounded(std::io::Cursor::new("0 1\n"), 0, 1000).unwrap();
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn streaming_reader_matches_in_memory_parser() {
        let text = "# header\nc comment\n0 1\n1 2\n\n2 3\n";
        let streamed = read_edge_list(std::io::Cursor::new(text), 0).unwrap();
        let parsed = parse_edge_list(text, 0).unwrap();
        assert_eq!(streamed, parsed);
        assert_eq!(streamed.num_edges(), 3);
    }

    #[test]
    fn streaming_reader_is_incremental() {
        let mut reader = EdgeListReader::new();
        reader.push_line("# comment").unwrap();
        assert_eq!(reader.num_edges(), 0);
        reader.push_line("0 1").unwrap();
        reader.push_line("1 2").unwrap();
        assert_eq!(reader.num_edges(), 2);
        // A malformed line reports its true line number (comments counted).
        let err = reader.push_line("nope").unwrap_err();
        assert_eq!(err.line(), 4);
        let g = reader.finish(0);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn round_trip() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let text = write_edge_list(&g);
        let parsed = parse_edge_list(&text, 0).unwrap();
        assert_eq!(parsed, g);
    }

    /// Property-style fuzzing of the untrusted-input path: hundreds of
    /// randomly mutated edge lists (and pure byte soup) must either parse
    /// or fail with a structured error pointing at a real line — never
    /// panic, never disagree between the in-memory and streaming parsers,
    /// and never accept a node id past the configured bound. The LCG is
    /// seeded deterministically so any failure reproduces exactly.
    #[test]
    fn fuzzed_edge_lists_never_panic_and_parsers_agree() {
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let seed_text = "# header\nc comment\n0 1\n1 2\n2 3\n3 0\n4 5\n% tail\n";
        for case in 0..400 {
            // Half the cases mutate a valid document, half are raw noise —
            // the former probe near-miss grammar, the latter probe the
            // tokenizer's worst inputs.
            let text = if case % 2 == 0 {
                let mut bytes = seed_text.as_bytes().to_vec();
                for _ in 0..=(next() % 8) {
                    let at = next() as usize % bytes.len();
                    bytes[at] = next() as u8;
                }
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                let len = next() as usize % 64;
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            };
            let limit = 1 + next() as usize % 4096;

            let in_memory = parse_edge_list(&text, 0);
            let streamed = read_edge_list(std::io::Cursor::new(text.as_bytes()), 0);
            match (&in_memory, &streamed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: parsers diverged on {text:?}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "case {case}: errors diverged on {text:?}");
                    let lines = text.lines().count().max(1);
                    assert!(
                        a.line() >= 1 && a.line() <= lines,
                        "case {case}: error line {} outside 1..={lines} for {text:?}",
                        a.line()
                    );
                    // Every error renders a line-numbered message.
                    assert!(a.to_string().contains(&format!("line {}", a.line())));
                }
                _ => panic!("case {case}: parsers disagreed on Ok/Err for {text:?}"),
            }

            // The bounded reader upholds its allocation guard: whatever it
            // accepts fits the limit (plus min_nodes padding of 0 here).
            if let Ok(graph) =
                read_edge_list_bounded(std::io::Cursor::new(text.as_bytes()), 0, limit)
            {
                assert!(
                    graph.num_nodes() <= limit,
                    "case {case}: {} nodes accepted past limit {limit} for {text:?}",
                    graph.num_nodes()
                );
            }
        }
    }
}
