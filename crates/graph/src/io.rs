//! Plain-text edge-list parsing and writing.
//!
//! Two entry points share one line-level parser: [`parse_edge_list`] for
//! in-memory text and [`read_edge_list`] for streaming sources (a file, a
//! socket body) via any [`BufRead`] — the serving subsystem feeds HTTP
//! request bodies through the latter without buffering the whole graph
//! twice.

use std::fmt;
use std::io::BufRead;

use crate::csr::CsrGraph;

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

/// Incremental edge-list reader: feed lines, then [`finish`].
///
/// Comment lines (`#`, `%` or `c` prefixes, the latter as used by DIMACS
///-style files) and blank lines are ignored.
///
/// [`finish`]: EdgeListReader::finish
#[derive(Debug)]
pub struct EdgeListReader {
    edges: Vec<(usize, usize)>,
    max_node: usize,
    has_nodes: bool,
    lines_seen: usize,
    node_limit: usize,
}

impl Default for EdgeListReader {
    fn default() -> Self {
        EdgeListReader::new()
    }
}

impl EdgeListReader {
    /// Creates an empty reader accepting any node id.
    pub fn new() -> Self {
        EdgeListReader {
            edges: Vec::new(),
            max_node: 0,
            has_nodes: false,
            lines_seen: 0,
            node_limit: usize::MAX,
        }
    }

    /// Rejects node ids `>= limit` with
    /// [`ParseEdgeListError::NodeIdOutOfRange`] instead of accepting them —
    /// required when the input is untrusted, since the node count (and the
    /// adjacency allocation) is `max id + 1`.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Number of (non-comment) edges accepted so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Consumes one line of input.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseEdgeListError`] if the line is malformed; the
    /// reader's prior state is unaffected, so the caller may skip or abort.
    pub fn push_line(&mut self, raw_line: &str) -> Result<(), ParseEdgeListError> {
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
        if let Some(&id) = [u, v].iter().find(|&&id| id >= self.node_limit) {
            return Err(ParseEdgeListError::NodeIdOutOfRange {
                line: line_number,
                id,
                limit: self.node_limit,
            });
        }
        self.max_node = self.max_node.max(u).max(v);
        self.has_nodes = true;
        self.edges.push((u, v));
        Ok(())
    }

    /// Builds the graph from everything read so far. The node count is
    /// `max id + 1` unless a larger `min_nodes` is given.
    ///
    /// # Panics
    ///
    /// Panics if the largest node id is `usize::MAX` (impossible under a
    /// [`node limit`](EdgeListReader::with_node_limit)).
    pub fn finish(self, min_nodes: usize) -> CsrGraph {
        let n = if self.has_nodes {
            self.max_node
                .checked_add(1)
                .expect("node id overflows the node count")
        } else {
            0
        }
        .max(min_nodes);
        CsrGraph::from_edge_vec(n, self.edges)
    }
}

/// Parses a whitespace-separated edge list held in memory.
///
/// * Empty lines and lines starting with `#`, `%` or `c` are ignored.
/// * Each remaining line must contain two node ids.
/// * The node count is `max id + 1` unless a larger `min_nodes` is given.
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
    let mut reader = EdgeListReader::new();
    for line in text.lines() {
        reader.push_line(line)?;
    }
    Ok(reader.finish(min_nodes))
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
    reader: R,
    min_nodes: usize,
    max_nodes: usize,
) -> Result<CsrGraph, ParseEdgeListError> {
    let mut parser = EdgeListReader::new().with_node_limit(max_nodes);
    for line in reader.lines() {
        let line = line.map_err(|error| ParseEdgeListError::Io {
            line: parser.lines_seen + 1,
            message: error.to_string(),
        })?;
        parser.push_line(&line)?;
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
