//! Experiment harness: regenerates every table of `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ampc-coloring-bench --bin experiments --release            # all experiments
//! cargo run -p ampc-coloring-bench --bin experiments --release -- E2 E6  # a subset
//! cargo run -p ampc-coloring-bench --bin experiments --release -- --json # JSON output
//! cargo run -p ampc-coloring-bench --bin experiments --release -- --runtime=parallel
//! ```
//!
//! `--runtime=parallel` runs every experiment on the parallel runtime
//! (`--runtime=sequential` is the default); the tables are
//! bit-identical either way, only the wall clock changes.

use std::time::Instant;

use ampc_coloring_bench::{all_experiments, experiment_by_id, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let runtime_kind: Option<String> = args
        .iter()
        .filter_map(|a| a.strip_prefix("--runtime=").map(str::to_string))
        .next_back();
    let runtime = ampc_coloring_bench::resolve_runtime(runtime_kind.as_deref());
    let selected: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();

    let experiments: Vec<Experiment> = if selected.is_empty() {
        all_experiments()
    } else {
        selected
            .iter()
            .filter_map(|id| {
                let found = experiment_by_id(id);
                if found.is_none() {
                    eprintln!("unknown experiment id `{id}` (known: E1..E10)");
                }
                found
            })
            .collect()
    };

    println!("# Experiment harness — Adaptive Massively Parallel Coloring in Sparse Graphs\n");
    for experiment in experiments {
        eprintln!("running {} — {} ...", experiment.id, experiment.description);
        let start = Instant::now();
        let table = (experiment.run)(runtime);
        let elapsed = start.elapsed();
        if json {
            println!("{}", table.to_json());
        } else {
            print!("{}", table.render());
        }
        eprintln!("  done in {:.1?}\n", elapsed);
    }
}
