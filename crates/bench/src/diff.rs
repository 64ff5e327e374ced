//! Bench-regression comparison between two `BENCH_*.json` snapshots.
//!
//! The `bench_diff` bin feeds two table documents (the files `intra_bench
//! --json` and `loadgen --json` emit) through [`diff_tables`]: rows are
//! keyed by their identity columns, every metric column is compared under
//! a per-metric noise policy, and the result renders as a markdown delta
//! table suitable for a CI job summary. Policies distinguish three
//! severities:
//!
//! * **hard** — correctness-adjacent metrics where any meaningful
//!   movement is a bug, not noise: the `identical` bit-identity flag,
//!   `allocs_per_round` (the allocation-discipline contract), and
//!   request failure counts. A hard regression always fails the diff.
//! * **soft** — wall-clock-shaped metrics (`wall_ms`, `p99_ms`,
//!   `throughput_jobs_per_s`, …) gated by a relative threshold AND an
//!   absolute floor, so microsecond jitter on fast cells cannot trip the
//!   relative gate. Soft regressions fail the diff unless
//!   [`DiffConfig::allow_soft`] is set (shared CI runners make
//!   wall-clock advisory there).
//! * **info** — hardware counters and task counts: reported in the
//!   delta table when they move, never a failure. Perf counters vary
//!   with multiplexing and are all-zero when `perf_available` is false,
//!   so they are context, not a gate.
//!
//! Baseline rows missing from the current run are hard regressions
//! (coverage loss); new rows are informational.

use std::collections::BTreeMap;

/// A parsed benchmark table: the subset of [`crate::Table`]'s JSON schema
/// the diff needs, plus the optional `meta` facts.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTable {
    /// Table identifier (`"intra"`, `"service-load"`, …).
    pub id: String,
    /// Table-level facts such as `perf_available`.
    pub meta: Vec<(String, String)>,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, all strings.
    pub rows: Vec<Vec<String>>,
}

/// Minimal JSON value for the table documents (no floats beyond what the
/// cells themselves encode — every leaf is kept as its source text).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// String literal (unescaped).
    Str(String),
    /// Number / `true` / `false` / `null`, kept verbatim.
    Raw(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("json parse error at byte {}: {message}", self.at)
    }

    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_whitespace();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.bytes.get(self.at).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(_) => self.raw(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs never appear in our own
                            // serializer's output; map them to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.error(&format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(&byte) => {
                    // Copy one UTF-8 scalar (multi-byte sequences arrive
                    // as valid UTF-8 because the input is a &str).
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.at..self.at + len)
                        .ok_or_else(|| self.error("truncated UTF-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk)
                            .map_err(|_| self.error("invalid UTF-8 in string"))?,
                    );
                    self.at += len;
                }
            }
        }
    }

    fn raw(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| !b.is_ascii_whitespace() && !matches!(b, b',' | b']' | b'}' | b':'))
        {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.error("expected a value"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.error("invalid UTF-8 in literal"))?;
        Ok(Json::Raw(text.to_string()))
    }
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            Json::Raw(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn string_array(&self) -> Option<Vec<String>> {
        match self {
            Json::Arr(items) => items
                .iter()
                .map(|item| item.as_str().map(str::to_string))
                .collect(),
            _ => None,
        }
    }
}

/// Finds the table object — the first object carrying both `headers` and
/// `rows` — in `value`, searching nested objects depth-first (the loadgen
/// document wraps its table under a `"load"` key).
fn find_table(value: &Json) -> Option<&Json> {
    if value.get("headers").is_some() && value.get("rows").is_some() {
        return Some(value);
    }
    if let Json::Obj(entries) = value {
        entries.iter().find_map(|(_, child)| find_table(child))
    } else {
        None
    }
}

/// Parses a `BENCH_*.json` document into a [`BenchTable`].
pub fn parse_table(text: &str) -> Result<BenchTable, String> {
    let mut parser = Parser::new(text);
    let document = parser.value()?;
    let table =
        find_table(&document).ok_or("no object with `headers` and `rows` found in the document")?;
    let headers = table
        .get("headers")
        .and_then(Json::string_array)
        .ok_or("`headers` is not an array of strings")?;
    let rows = match table.get("rows") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|row| {
                row.string_array()
                    .filter(|cells| cells.len() == headers.len())
                    .ok_or("a row is not a string array matching the header width")
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("`rows` is not an array".to_string()),
    };
    let meta = match table.get("meta") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .filter_map(|(key, value)| value.as_str().map(|v| (key.clone(), v.to_string())))
            .collect(),
        _ => Vec::new(),
    };
    Ok(BenchTable {
        id: table
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        meta,
        headers,
        rows,
    })
}

/// How a metric column is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Any meaningful movement fails the diff unconditionally.
    Hard,
    /// Fails unless [`DiffConfig::allow_soft`] downgrades it to a warning.
    Soft,
    /// Reported, never a failure.
    Info,
}

/// Which direction of movement is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Bigger is worse (latency, allocations, failures).
    UpIsBad,
    /// Smaller is worse (throughput, successes).
    DownIsBad,
}

/// Per-metric policy: severity, direction and noise thresholds. A change
/// only counts as a regression when it moves in the bad direction by more
/// than `rel_threshold` RELATIVE AND more than `abs_floor` ABSOLUTE (in
/// the metric's own unit) — the floor keeps sub-noise absolute movements
/// on tiny baselines from tripping the relative gate.
#[derive(Debug, Clone, Copy)]
struct Policy {
    severity: Severity,
    direction: Direction,
    rel_threshold: f64,
    abs_floor: f64,
}

/// Classifies a column by header name. Returns `None` for identity
/// columns (they form the row key).
fn policy_for(header: &str, config: &DiffConfig) -> Option<Policy> {
    let wall = Policy {
        severity: Severity::Soft,
        direction: Direction::UpIsBad,
        rel_threshold: config.rel_threshold,
        abs_floor: config.abs_floor,
    };
    match header {
        // Bit-identity and allocation discipline are deterministic
        // contracts: any movement is a real defect, never noise.
        "identical" => Some(Policy {
            severity: Severity::Hard,
            direction: Direction::DownIsBad, // true(1) -> false(0)
            rel_threshold: 0.0,
            abs_floor: 0.0,
        }),
        "allocs_per_round" => Some(Policy {
            severity: Severity::Hard,
            direction: Direction::UpIsBad,
            // Work-stealing interleaving shifts the amortized count by
            // ~tens per round between runs; the regression this gate
            // exists for — a per-node allocation pattern — is thousands
            // per round, so a generous floor loses nothing.
            rel_threshold: 0.25,
            abs_floor: 64.0,
        }),
        "failed" => Some(Policy {
            severity: Severity::Hard,
            direction: Direction::UpIsBad,
            rel_threshold: 0.0,
            abs_floor: 0.0,
        }),
        "ok" => Some(Policy {
            severity: Severity::Hard,
            direction: Direction::DownIsBad,
            rel_threshold: 0.0,
            abs_floor: 0.0,
        }),
        // Wall-clock-shaped metrics: noisy on shared runners, gated by
        // the configured thresholds.
        "wall_ms" | "wall_s" | "p50_ms" | "p99_ms" => Some(wall),
        "speedup" | "throughput_jobs_per_s" => Some(Policy {
            direction: Direction::DownIsBad,
            ..wall
        }),
        // Hardware counters and scheduler task counts: context only.
        // Perf counters vary with multiplexing (and are all-zero when
        // unavailable); task counts vary with work-stealing interleaving.
        "cycles" | "instructions" | "ipc" | "cache_miss_pct" | "branch_misses" | "intra_tasks"
        | "jobs" => Some(Policy {
            severity: Severity::Info,
            direction: Direction::UpIsBad,
            rel_threshold: config.rel_threshold,
            abs_floor: config.abs_floor,
        }),
        _ => None,
    }
}

/// Thresholds and downgrade switches for one diff run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative movement (fraction of baseline) below which a soft/info
    /// metric is considered noise.
    pub rel_threshold: f64,
    /// Absolute movement (metric units) below which it is noise.
    pub abs_floor: f64,
    /// Downgrades soft (wall-clock) regressions to warnings — for shared
    /// CI runners whose wall clock is not trustworthy. Hard regressions
    /// still fail.
    pub allow_soft: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            rel_threshold: 0.15,
            abs_floor: 2.0,
            allow_soft: false,
        }
    }
}

/// One compared metric that moved beyond its policy's noise thresholds
/// (or a structural difference such as a missing row).
#[derive(Debug, Clone)]
pub struct Delta {
    /// Row key (identity columns joined with ` / `).
    pub key: String,
    /// Metric column name, or a structural marker such as `row`.
    pub metric: String,
    /// Baseline cell text.
    pub baseline: String,
    /// Current cell text.
    pub current: String,
    /// Relative movement (signed; positive = increased), when numeric.
    pub relative: Option<f64>,
    /// Policy severity of the movement.
    pub severity: Severity,
    /// Whether the movement is in the bad direction beyond thresholds.
    pub regression: bool,
}

/// The outcome of comparing two tables.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every beyond-noise movement, regressions first.
    pub deltas: Vec<Delta>,
    /// Hard regressions (always fatal).
    pub hard_regressions: usize,
    /// Soft regressions (fatal unless downgraded).
    pub soft_regressions: usize,
    /// Whether the diff should fail under `config`.
    pub failed: bool,
}

/// Numeric value of a cell: booleans map to 1/0 so the `identical`
/// column diffs like any other metric; `-` (perf unavailable) is `None`.
fn numeric(cell: &str) -> Option<f64> {
    match cell {
        "true" => Some(1.0),
        "false" => Some(0.0),
        "-" => None,
        other => other.parse().ok(),
    }
}

/// Compares `current` against `baseline` under `config`.
pub fn diff_tables(baseline: &BenchTable, current: &BenchTable, config: &DiffConfig) -> DiffReport {
    // Key = identity columns (no policy). Metric columns are compared by
    // NAME, not position, so adding a column does not invalidate a
    // committed baseline.
    let key_of = |table: &BenchTable, row: &[String]| -> String {
        table
            .headers
            .iter()
            .zip(row)
            .filter(|(header, _)| policy_for(header, config).is_none())
            .map(|(_, cell)| cell.clone())
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let index = |table: &BenchTable| -> BTreeMap<String, Vec<String>> {
        table
            .rows
            .iter()
            .map(|row| (key_of(table, row), row.clone()))
            .collect()
    };
    let baseline_rows = index(baseline);
    let current_rows = index(current);

    let mut deltas = Vec::new();
    for (key, baseline_row) in &baseline_rows {
        let Some(current_row) = current_rows.get(key) else {
            // A cell the baseline covers has disappeared: that is
            // coverage loss, not noise.
            deltas.push(Delta {
                key: key.clone(),
                metric: "row".to_string(),
                baseline: "present".to_string(),
                current: "missing".to_string(),
                relative: None,
                severity: Severity::Hard,
                regression: true,
            });
            continue;
        };
        for (column, header) in baseline.headers.iter().enumerate() {
            let Some(policy) = policy_for(header, config) else {
                continue;
            };
            let baseline_cell = &baseline_row[column];
            let current_cell = match current.headers.iter().position(|h| h == header) {
                Some(at) => &current_row[at],
                None => continue, // column dropped in current: key mismatch already caught it
            };
            let (Some(before), Some(after)) = (numeric(baseline_cell), numeric(current_cell))
            else {
                // One side unsampled (`-`): perf availability differs
                // between the two machines; not comparable, not a
                // regression.
                continue;
            };
            let moved = after - before;
            let relative = if before.abs() > f64::EPSILON {
                moved / before
            } else if moved.abs() > f64::EPSILON {
                1.0
            } else {
                0.0
            };
            let bad = match policy.direction {
                Direction::UpIsBad => moved > 0.0,
                Direction::DownIsBad => moved < 0.0,
            };
            let beyond_noise =
                relative.abs() > policy.rel_threshold && moved.abs() > policy.abs_floor;
            // Zero-threshold policies (identical, failed) trip on any
            // bad movement at all.
            let strict = policy.rel_threshold == 0.0 && policy.abs_floor == 0.0;
            let regression = bad && (beyond_noise || (strict && moved.abs() > 0.0));
            if regression || beyond_noise {
                deltas.push(Delta {
                    key: key.clone(),
                    metric: header.clone(),
                    baseline: baseline_cell.clone(),
                    current: current_cell.clone(),
                    relative: Some(relative),
                    severity: policy.severity,
                    regression,
                });
            }
        }
    }
    for key in current_rows.keys() {
        if !baseline_rows.contains_key(key) {
            deltas.push(Delta {
                key: key.clone(),
                metric: "row".to_string(),
                baseline: "missing".to_string(),
                current: "present".to_string(),
                relative: None,
                severity: Severity::Info,
                regression: false,
            });
        }
    }

    deltas.sort_by_key(|delta| {
        (
            !delta.regression,
            match delta.severity {
                Severity::Hard => 0u8,
                Severity::Soft => 1,
                Severity::Info => 2,
            },
        )
    });
    let hard_regressions = deltas
        .iter()
        .filter(|d| d.regression && d.severity == Severity::Hard)
        .count();
    let soft_regressions = deltas
        .iter()
        .filter(|d| d.regression && d.severity == Severity::Soft)
        .count();
    DiffReport {
        failed: hard_regressions > 0 || (soft_regressions > 0 && !config.allow_soft),
        deltas,
        hard_regressions,
        soft_regressions,
    }
}

/// Renders the report as a markdown document (for `$GITHUB_STEP_SUMMARY`).
pub fn render_markdown(
    table_id: &str,
    baseline: &BenchTable,
    current: &BenchTable,
    report: &DiffReport,
    config: &DiffConfig,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("### bench-diff: `{table_id}`\n\n"));
    let meta_of = |table: &BenchTable, key: &str| -> String {
        table
            .meta
            .iter()
            .find(|(name, _)| name == key)
            .map_or_else(|| "unset".to_string(), |(_, value)| value.clone())
    };
    out.push_str(&format!(
        "perf_available: baseline={}, current={}\n\n",
        meta_of(baseline, "perf_available"),
        meta_of(current, "perf_available"),
    ));
    if report.deltas.is_empty() {
        out.push_str("No movements beyond noise thresholds.\n");
        return out;
    }
    out.push_str("| status | row | metric | baseline | current | delta |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for delta in &report.deltas {
        let status = match (delta.regression, delta.severity, config.allow_soft) {
            (true, Severity::Hard, _) => "❌ hard",
            (true, Severity::Soft, true) => "⚠️ soft (allowed)",
            (true, Severity::Soft, false) => "❌ soft",
            (true, Severity::Info, _) | (false, _, _) => "ℹ️",
        };
        let relative = delta
            .relative
            .map_or_else(String::new, |r| format!("{:+.1}%", r * 100.0));
        out.push_str(&format!(
            "| {status} | {} | {} | {} | {} | {relative} |\n",
            delta.key, delta.metric, delta.baseline, delta.current
        ));
    }
    out.push_str(&format!(
        "\n{} hard, {} soft regression(s); verdict: **{}**\n",
        report.hard_regressions,
        report.soft_regressions,
        if report.failed { "FAIL" } else { "PASS" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(headers: &[&str], rows: &[&[&str]]) -> BenchTable {
        BenchTable {
            id: "intra".to_string(),
            meta: vec![("perf_available".to_string(), "false".to_string())],
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows
                .iter()
                .map(|row| row.iter().map(|c| c.to_string()).collect())
                .collect(),
        }
    }

    const HEADERS: &[&str] = &[
        "workload",
        "threads",
        "wall_ms",
        "allocs_per_round",
        "identical",
    ];

    #[test]
    fn parses_intra_style_document() {
        let text = r#"{
  "id": "intra",
  "title": "demo",
  "claim": "c",
  "meta": {"perf_available": "false"},
  "headers": ["workload", "wall_ms"],
  "rows": [
    ["forest", "12.5"],
    ["power-law", "30.1"]
  ]
}"#;
        let parsed = parse_table(text).unwrap();
        assert_eq!(parsed.id, "intra");
        assert_eq!(parsed.headers, ["workload", "wall_ms"]);
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(
            parsed.meta,
            [("perf_available".to_string(), "false".to_string())]
        );
    }

    #[test]
    fn finds_table_nested_under_load_key() {
        let text = r#"{"load": {"id": "service-load", "headers": ["workload", "p99_ms"],
            "rows": [["ring", "5.0"]]}, "latency_histogram": {"count": 9}}"#;
        let parsed = parse_table(text).unwrap();
        assert_eq!(parsed.id, "service-load");
        assert_eq!(parsed.rows, [["ring".to_string(), "5.0".to_string()]]);
    }

    #[test]
    fn twenty_percent_wall_clock_regression_fails() {
        let baseline = table(HEADERS, &[&["forest", "4", "100.000", "0", "true"]]);
        let current = table(HEADERS, &[&["forest", "4", "120.000", "0", "true"]]);
        let report = diff_tables(&baseline, &current, &DiffConfig::default());
        assert!(report.failed, "{report:?}");
        assert_eq!(report.soft_regressions, 1);
        assert_eq!(report.hard_regressions, 0);
        // The same movement is tolerated when wall clock is advisory.
        let relaxed = DiffConfig {
            allow_soft: true,
            ..DiffConfig::default()
        };
        assert!(!diff_tables(&baseline, &current, &relaxed).failed);
    }

    #[test]
    fn small_absolute_movement_on_fast_cell_is_noise() {
        // +50% relative but only +1ms absolute: under the 2ms floor.
        let baseline = table(HEADERS, &[&["forest", "4", "2.000", "0", "true"]]);
        let current = table(HEADERS, &[&["forest", "4", "3.000", "0", "true"]]);
        let report = diff_tables(&baseline, &current, &DiffConfig::default());
        assert!(!report.failed, "{report:?}");
    }

    #[test]
    fn bit_identity_divergence_is_always_hard() {
        let baseline = table(HEADERS, &[&["forest", "4", "10.000", "0", "true"]]);
        let current = table(HEADERS, &[&["forest", "4", "10.000", "0", "false"]]);
        let config = DiffConfig {
            allow_soft: true,
            ..DiffConfig::default()
        };
        let report = diff_tables(&baseline, &current, &config);
        assert!(report.failed);
        assert_eq!(report.hard_regressions, 1);
    }

    #[test]
    fn alloc_budget_divergence_is_hard_and_improvement_is_not() {
        let baseline = table(HEADERS, &[&["forest", "4", "10.000", "10", "true"]]);
        let worse = table(HEADERS, &[&["forest", "4", "10.000", "400", "true"]]);
        let report = diff_tables(&baseline, &worse, &DiffConfig::default());
        assert!(report.failed);
        assert_eq!(report.hard_regressions, 1);
        // Fewer allocations and faster wall clock: reportable, not fatal.
        let better = table(HEADERS, &[&["forest", "4", "5.000", "0", "true"]]);
        let report = diff_tables(&baseline, &better, &DiffConfig::default());
        assert!(!report.failed, "{report:?}");
    }

    #[test]
    fn missing_baseline_row_is_hard_and_new_row_is_info() {
        let baseline = table(
            HEADERS,
            &[
                &["forest", "1", "10.000", "0", "true"],
                &["forest", "4", "4.000", "0", "true"],
            ],
        );
        let shrunk = table(HEADERS, &[&["forest", "1", "10.000", "0", "true"]]);
        let report = diff_tables(&baseline, &shrunk, &DiffConfig::default());
        assert!(report.failed);
        assert_eq!(report.hard_regressions, 1);
        let report = diff_tables(&shrunk, &baseline, &DiffConfig::default());
        assert!(!report.failed, "{report:?}");
    }

    #[test]
    fn unsampled_perf_cells_do_not_compare() {
        let headers: &[&str] = &["workload", "ipc", "wall_ms"];
        let baseline = table(headers, &[&["forest", "-", "10.000"]]);
        let current = table(headers, &[&["forest", "1.42", "10.000"]]);
        let report = diff_tables(&baseline, &current, &DiffConfig::default());
        assert!(!report.failed);
        assert!(report.deltas.is_empty(), "{report:?}");
    }

    #[test]
    fn markdown_report_lists_regressions_first() {
        let baseline = table(HEADERS, &[&["forest", "4", "100.000", "0", "true"]]);
        let current = table(HEADERS, &[&["forest", "4", "150.000", "640", "true"]]);
        let config = DiffConfig::default();
        let report = diff_tables(&baseline, &current, &config);
        let markdown = render_markdown("intra", &baseline, &current, &report, &config);
        assert!(
            markdown.contains("❌ hard | forest / 4 | allocs_per_round"),
            "{markdown}"
        );
        assert!(markdown.contains("verdict: **FAIL**"), "{markdown}");
        let allocs_line = markdown.find("allocs_per_round").unwrap();
        let wall_line = markdown.find("wall_ms").unwrap();
        assert!(allocs_line < wall_line, "{markdown}");
    }
}
