//! Compares two benchmark snapshots (`BENCH_intra.json` / the loadgen
//! document) and fails on regressions beyond per-metric noise thresholds.
//!
//! ```text
//! cargo run -p ampc-coloring-bench --bin bench_diff -- \
//!     bench/baselines/intra.json BENCH_intra.json
//! ```
//!
//! Positional arguments: `<baseline.json> <current.json>`. Flags:
//!
//! * `--rel-threshold=F` — relative noise threshold for soft/info metrics
//!   (default 0.15 = 15%).
//! * `--abs-floor=F` — absolute noise floor in the metric's own unit
//!   (default 2.0; e.g. 2ms for `wall_ms`).
//! * `--allow-wall-regression` — downgrade soft (wall-clock-shaped)
//!   regressions to warnings, for shared CI runners. Hard regressions
//!   (bit-identity, allocation budget, request failures, lost rows)
//!   still exit non-zero.
//! * `--out=PATH` — also write the markdown delta table to `PATH`
//!   (e.g. to append to `$GITHUB_STEP_SUMMARY`); it always goes to
//!   stdout regardless.
//!
//! Any other `--` argument, or a threshold or floor that is not a finite
//! non-negative number, prints the usage and exits 2 before any file is
//! read: a typo in a regression gate's threshold must not run the gate
//! with the default.
//!
//! Exit status: 0 when no regression (informational movements are fine),
//! 1 on any regression that is not downgraded, 2 on usage/parse errors.

use ampc_coloring_bench::args::{has_flag, malformed_number, parse_flag, unknown_argument};
use ampc_coloring_bench::diff::{diff_tables, parse_table, render_markdown, DiffConfig};

fn load(path: &str) -> ampc_coloring_bench::diff::BenchTable {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("bench_diff: cannot read {path}: {error}");
        std::process::exit(2);
    });
    parse_table(&text).unwrap_or_else(|error| {
        eprintln!("bench_diff: cannot parse {path}: {error}");
        std::process::exit(2);
    })
}

const USAGE: &str = "usage: bench_diff <baseline.json> <current.json> \
                     [--rel-threshold=F] [--abs-floor=F] [--allow-wall-regression] [--out=PATH]";

fn main() {
    let (flags, positional): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|arg| arg.starts_with("--"));
    if let Some(unknown) = unknown_argument(
        &flags,
        &["allow-wall-regression"],
        &["rel-threshold", "abs-floor", "out"],
    ) {
        eprintln!("bench_diff: unknown argument `{unknown}`\n{USAGE}");
        std::process::exit(2);
    }
    if let Some(malformed) = malformed_number(&flags, &["rel-threshold", "abs-floor"]) {
        eprintln!("bench_diff: malformed argument `{malformed}`\n{USAGE}");
        std::process::exit(2);
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    let config = DiffConfig {
        rel_threshold: parse_flag(&flags, "rel-threshold").unwrap_or(0.15),
        abs_floor: parse_flag(&flags, "abs-floor").unwrap_or(2.0),
        allow_soft: has_flag(&flags, "allow-wall-regression"),
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    if baseline.headers != current.headers {
        // Comparable subsets still diff (metrics match by name), but a
        // schema drift is worth a loud note: the baseline likely needs
        // regenerating.
        eprintln!(
            "bench_diff: note — header sets differ (baseline {:?} vs current {:?}); \
             metrics are matched by name",
            baseline.headers, current.headers
        );
    }
    let report = diff_tables(&baseline, &current, &config);
    let markdown = render_markdown(&current.id, &baseline, &current, &report, &config);
    print!("{markdown}");
    if let Some(path) = parse_flag::<String>(&flags, "out") {
        if let Err(error) = std::fs::write(&path, &markdown) {
            eprintln!("bench_diff: cannot write {path}: {error}");
            std::process::exit(2);
        }
    }
    if report.failed {
        eprintln!(
            "bench_diff: FAILED — {} hard, {} soft regression(s) vs {baseline_path}",
            report.hard_regressions, report.soft_regressions
        );
        std::process::exit(1);
    }
}
