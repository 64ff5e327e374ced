//! `servebench`: the end-to-end benchmark of `ampc-serve`'s `/v1/color`.
//!
//! ```text
//! servebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! servebench --server PATH --smoke [--trace 1]
//! ```
//!
//! One run starts three fresh servers in turn with their default flags,
//! warms each up and drives it over loopback in a closed loop for a third
//! of `S` seconds, then checks every coloring and prints the metrics. The
//! last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--smoke` runs
//! every workload for a few jobs and exits non-zero on any failure.
//! `run.sh` builds both programs and runs this one; see `README.md` for
//! the workloads and metrics.

mod calib;
mod check;
mod client;
mod json;
mod layers;
mod server;
mod stats;
mod workload;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use calib::{Calibration, HostTicks, Kernels};
use client::{closed_loop, Sample, Window};
use layers::{Values, PER_LAYER};
use server::{ProcSample, Server, SERVER_FLAGS};
use stats::{median, tail, Tally};
use workload::{EdgeList, Inputs, Workload};

#[global_allocator]
static ALLOCATOR: layers::GatedCounter = layers::GatedCounter;

/// Fresh servers per run. Each is set up and then serves an equal share
/// of the timed window, so one run samples several server processes and
/// several moments of the host; `setup_s` is the median of their set-ups.
const ROUNDS: usize = 3;
/// Server job traces fetched per round of a traced run.
const TRACES_PER_ROUND: usize = 6;
/// `colors_used_max` covers the first this many timed inputs only, so it
/// is exact for a seed however many jobs the window fits.
const PALETTE_INPUTS: usize = 12;

struct Options {
    server: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        server: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 35,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--server" => options.server = PathBuf::from(value),
            "--workload" => options.workload = Some(value.clone()),
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.max(1),
            "--trace" => options.trace = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if options.server.as_os_str().is_empty() {
        return Err("--server is required".to_string());
    }
    if options.workload.is_none() && !options.smoke {
        return Err("--workload is required".to_string());
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("servebench: {error}");
        eprintln!(
            "usage: servebench --server PATH (--workload NAME --seed N --seconds S --trace 0|1 \
             | --smoke [--trace 1]); workloads: {}",
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    });
    let phase = Instant::now();
    let kernels = Kernels::new();
    eprintln!(
        "servebench: calibration kernels built in {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    if options.smoke {
        std::process::exit(smoke(&options, &kernels));
    }
    let name = options.workload.as_deref().expect("checked by parse_args");
    let Some(workload) = Workload::by_name(name) else {
        eprintln!("servebench: unknown workload `{name}`");
        std::process::exit(2);
    };
    match run(&options, workload, &kernels) {
        Ok(run) => {
            run.print(options.trace);
            println!("{}", run.result_json(options.trace));
        }
        Err(error) => {
            eprintln!("servebench: {error}");
            std::process::exit(1);
        }
    }
}

/// Every workload for a few jobs; non-zero on any failure.
fn smoke(options: &Options, kernels: &Kernels) -> i32 {
    let mut failures = 0;
    for name in workload::NAMES {
        let workload = Workload::by_name(name).expect("listed workloads exist");
        match run(options, workload, kernels) {
            Ok(run) => {
                run.print(options.trace);
                if !run.correct() {
                    failures += 1;
                }
            }
            Err(error) => {
                println!("smoke {name}: error: {error}");
                failures += 1;
            }
        }
    }
    println!(
        "smoke: {} of {} workloads passed",
        workload::NAMES.len() - failures,
        workload::NAMES.len()
    );
    i32::from(failures > 0)
}

/// Everything one run measured.
struct Run {
    workload: Workload,
    facts: Vec<(&'static str, String)>,
    calibration: [Calibration; 2],
    setup_s: Vec<f64>,
    tally: Tally,
    /// Problems that make the run incorrect without failing a job.
    violations: Vec<String>,
    latencies_ms: Vec<f64>,
    window: Duration,
    exhausted: bool,
    server_cpu_ms: f64,
    peak_rss_mb: f64,
    colors_used_max: usize,
    layers: Values,
}

/// What one server of a run measured.
struct Round {
    setup_s: f64,
    git_rev: String,
    window: Window,
    /// Hypervisor steal over the window, in percent of the machine's CPU
    /// time (host-drift context).
    steal_pct: Option<f64>,
    proc: [ProcSample; 2],
    metrics: [Option<json::Value>; 2],
    /// Traced runs: server-side values of the jobs computed in the window.
    jobs: Vec<Values>,
}

/// Sets up a fresh server, runs its share of the timed window on
/// `timed`, and stops it.
fn round(
    options: &Options,
    workload: &Workload,
    inputs: &Inputs,
    timed: &[workload::Request],
    duration: Duration,
) -> Result<Round, String> {
    let started = Instant::now();
    let server = Server::spawn(&options.server)?;
    server.wait_healthy(Duration::from_secs(30))?;
    warm_up(server.addr, workload, inputs)?;
    let setup_s = started.elapsed().as_secs_f64();
    let addr = server.addr;
    let git_rev = client::get(addr, "/v1/version")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok())
        .and_then(|v| v.at(&["build_info", "git_hash"])?.str().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());

    // The timed window: socket I/O only.
    let metrics_before = scrape_metrics(addr);
    let proc_before = ProcSample::read(server.pid())?;
    let ticks_before = HostTicks::read();
    let cycle = workload.cached_set.is_some();
    let window = closed_loop(addr, timed, workload.clients, duration, cycle);
    let ticks_after = HostTicks::read();
    let proc_after = ProcSample::read(server.pid())?;
    let metrics_after = scrape_metrics(addr);
    let steal_pct = calib::steal_pct(ticks_before, ticks_after);

    let jobs = if options.trace {
        server_jobs(addr, &window)
    } else {
        Vec::new()
    };
    Ok(Round {
        setup_s,
        git_rev,
        window,
        steal_pct,
        proc: [proc_before, proc_after],
        metrics: [metrics_before, metrics_after],
        jobs,
    })
}

fn run(options: &Options, workload: Workload, kernels: &Kernels) -> Result<Run, String> {
    let phase = Instant::now();
    let inputs = workload.inputs(options.seed, options.seconds, options.smoke);
    eprintln!(
        "servebench: inputs generated in {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    let before = kernels.measure();

    let (count, duration) = if options.smoke {
        (1, Duration::from_nanos(1)) // one request per client
    } else {
        (
            ROUNDS,
            Duration::from_secs_f64(options.seconds as f64 / ROUNDS as f64),
        )
    };
    let cycle = workload.cached_set.is_some();
    let mut rounds: Vec<Round> = Vec::new();
    let mut next_input = 0;
    for _ in 0..count {
        // New graphs continue where the previous server stopped, so every
        // job of the run is distinct; a cached set is replayed whole.
        let offset = if cycle { 0 } else { next_input };
        let mut round = round(
            options,
            &workload,
            &inputs,
            &inputs.timed[offset..],
            duration,
        )?;
        for sample in &mut round.window.samples {
            sample.input += offset;
        }
        next_input += round.window.samples.len();
        rounds.push(round);
    }
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.window.samples).collect();

    // Checks, after the window.
    let phase = Instant::now();
    let mut tally = Tally::default();
    let mut violations = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut checked = Vec::new();
    let mut colors_used_max = 0;
    let mut graphs: BTreeMap<usize, EdgeList> = BTreeMap::new();
    for sample in &samples {
        if let Entry::Vacant(slot) = graphs.entry(sample.input) {
            slot.insert(EdgeList::parse_body(inputs.timed[sample.input].body())?);
        }
        match check::judge(
            &sample.result,
            &graphs[&sample.input],
            workload.palette_bound,
        ) {
            Ok(ok) => {
                tally.success();
                let exchange = sample.result.as_ref().expect("judged a success");
                latencies_ms.push(exchange.total.as_secs_f64() * 1e3);
                if sample.input < PALETTE_INPUTS {
                    colors_used_max = colors_used_max.max(ok.colors_used);
                }
                checked.push((exchange, ok));
            }
            Err(reason) => tally.failure(&reason),
        }
    }
    if tally.attempted == 0 {
        violations.push("no request completed in the timed window".to_string());
    }
    if cycle {
        let misses = checked.iter().filter(|(_, c)| !c.cached).count();
        let computed = sum_delta(&rounds, &["jobs", "computed"]);
        if misses > 0 || computed.is_some_and(|computed| computed > 0.0) {
            violations.push(format!(
                "cache: {misses} of {} timed responses were not cache hits",
                checked.len()
            ));
        }
        let cost: usize = graphs.values().map(EdgeList::cache_cost).sum();
        if cost > workload::DEFAULT_CACHE_NODE_BUDGET {
            violations.push(format!(
                "cache: the set costs {cost}, over the default budget {}",
                workload::DEFAULT_CACHE_NODE_BUDGET
            ));
        }
    }
    eprintln!(
        "servebench: responses checked in {:.2} s",
        phase.elapsed().as_secs_f64()
    );

    let delta = |field: fn(&ProcSample) -> u64| -> u64 {
        rounds
            .iter()
            .map(|r| field(&r.proc[1]).saturating_sub(field(&r.proc[0])))
            .sum()
    };
    let mut layers = Values::new();
    if options.trace {
        layers = client_layers(&checked);
        layers.extend(job_layers(&rounds, &checked));
        layers.extend(metrics_layers(&rounds));
        let jobs = tally.succeeded().max(1) as f64;
        layers.insert(
            "process.minor_faults_per_job",
            delta(|p| p.minor_faults) as f64 / jobs,
        );
        layers.insert(
            "process.ctx_switches_per_job",
            delta(|p| p.ctx_switches) as f64 / jobs,
        );
        let threads = rounds.iter().map(|r| r.proc[1].threads).max().unwrap_or(0);
        layers.insert("process.threads", threads as f64);
        // The in-process calls, with every server gone.
        let bodies: Vec<&[u8]> = inputs.timed.iter().map(|r| r.body()).collect();
        let beta = checked.iter().find_map(|(_, c)| c.beta);
        layers.extend(layers::in_process(&bodies, workload.query, beta)?);
    }
    let after = kernels.measure();

    let mut facts = server::host_facts();
    facts.push(("git_rev", rounds[0].git_rev.clone()));
    facts.push(("server_flags", SERVER_FLAGS.join(" ")));
    facts.push(("servers", rounds.len().to_string()));
    facts.push(("clients", workload.clients.to_string()));
    facts.push(("warmup_jobs_per_server", inputs.warmup.len().to_string()));
    facts.push(("timed_inputs", inputs.timed.len().to_string()));
    facts.push(("attempted", tally.attempted.to_string()));
    facts.push(("failed", tally.failed.to_string()));
    let polled = samples
        .iter()
        .filter(|s| s.result.as_ref().is_ok_and(|e| e.polls > 0));
    facts.push(("polled_202", polled.count().to_string()));
    let server_p50s: Vec<String> = rounds
        .iter()
        .map(|r| {
            let ms: Vec<f64> = r
                .window
                .samples
                .iter()
                .filter_map(|s| s.result.as_ref().ok())
                .map(|e| e.total.as_secs_f64() * 1e3)
                .collect();
            format!("{:.1}", median(&ms).unwrap_or(0.0))
        })
        .collect();
    facts.push(("p50_ms_per_server", server_p50s.join("/")));
    let server_steals: Vec<String> = rounds
        .iter()
        .map(|r| r.steal_pct.map_or("?".to_string(), |s| format!("{s:.1}")))
        .collect();
    facts.push(("steal_pct_per_server", server_steals.join("/")));
    let cpu_ms: f64 = rounds
        .iter()
        .map(|r| r.proc[1].cpu_ms - r.proc[0].cpu_ms)
        .sum();
    let peak_rss_kib = rounds
        .iter()
        .map(|r| r.proc[1].peak_rss_kib)
        .max()
        .unwrap_or(0);
    Ok(Run {
        workload,
        facts,
        calibration: [before, after],
        setup_s: rounds.iter().map(|r| r.setup_s).collect(),
        tally,
        violations,
        latencies_ms,
        window: rounds.iter().map(|r| r.window.elapsed).sum(),
        exhausted: rounds.iter().any(|r| r.window.exhausted),
        server_cpu_ms: cpu_ms,
        peak_rss_mb: peak_rss_kib as f64 * 1024.0 / 1e6,
        colors_used_max,
        layers,
    })
}

/// Warm-up: the workload's warm-up jobs on its own connection count; a
/// cached set is computed over two connections and then read back once.
fn warm_up(addr: SocketAddr, workload: &Workload, inputs: &Inputs) -> Result<(), String> {
    let passes: &[usize] = match workload.cached_set {
        Some(_) => &[2, 1],
        None => &[workload.clients],
    };
    for &clients in passes {
        let window = closed_loop(addr, &inputs.warmup, clients, Duration::MAX, false);
        for sample in &window.samples {
            match &sample.result {
                Ok(exchange) if exchange.status == 200 => {}
                Ok(exchange) => return Err(format!("warm-up job answered {}", exchange.status)),
                Err(error) => return Err(format!("warm-up job: {error}")),
            }
        }
    }
    Ok(())
}

/// `/metrics` as JSON, or `None` if it cannot be read.
fn scrape_metrics(addr: SocketAddr) -> Option<json::Value> {
    let (status, body) = client::get(addr, "/metrics").ok()?;
    (status == 200).then(|| json::parse(&body).ok())?
}

/// The change of a `/metrics` number over the timed windows of all
/// rounds, or `None` if any round lacks it.
fn sum_delta(rounds: &[Round], path: &[&str]) -> Option<f64> {
    rounds
        .iter()
        .map(|r| {
            let [before, after] = &r.metrics;
            Some(after.as_ref()?.num_at(path)? - before.as_ref()?.num_at(path)?)
        })
        .sum()
}

/// Per-layer numbers read from `/metrics` over the windows.
fn metrics_layers(rounds: &[Round]) -> Values {
    let delta = |path: &[&str]| sum_delta(rounds, path);
    let mut values = Values::new();
    let wait_sum = delta(&["latency", "queue_wait_micros", "sum"]);
    let wait_count = delta(&["latency", "queue_wait_micros", "count"]);
    if let (Some(sum), Some(count)) = (wait_sum, wait_count) {
        let mean_us = if count > 0.0 { sum / count } else { 0.0 };
        values.insert("service.queue_wait_ms", mean_us / 1e3);
    }
    if let (Some(hits), Some(misses)) = (delta(&["cache", "hits"]), delta(&["cache", "misses"])) {
        let lookups = hits + misses;
        values.insert(
            "service.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
    }
    values
}

/// Medians of the client spans of the successful requests.
fn client_layers(checked: &[(&client::Exchange, check::Checked)]) -> Values {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let series: [(&'static str, Vec<f64>); 6] = [
        (
            "service.upload_ms",
            checked.iter().map(|(e, _)| ms(e.upload)).collect(),
        ),
        (
            "service.wait_ms",
            checked.iter().map(|(e, _)| ms(e.wait)).collect(),
        ),
        (
            "service.download_ms",
            checked.iter().map(|(e, _)| ms(e.download)).collect(),
        ),
        (
            "service.exec_ms",
            checked.iter().map(|(_, c)| c.exec_ms).collect(),
        ),
        (
            "service.edge_ms",
            checked
                .iter()
                .map(|(e, c)| ms(e.total) - c.exec_ms)
                .collect(),
        ),
        (
            "service.response_bytes",
            checked.iter().map(|(e, _)| e.body.len() as f64).collect(),
        ),
    ];
    series
        .into_iter()
        .map(|(name, samples)| (name, median(&samples).unwrap_or(0.0)))
        .collect()
}

/// Server-side values of up to [`TRACES_PER_ROUND`] jobs computed in a
/// round's window: the job's trace and its `runtime_stats`.
fn server_jobs(addr: SocketAddr, window: &Window) -> Vec<Values> {
    let computed = window
        .samples
        .iter()
        .filter_map(|sample| sample.result.as_ref().ok())
        .filter(|exchange| exchange.status == 200)
        .filter_map(|exchange| json::parse(&exchange.body).ok())
        .filter(|job| job.at(&["cached"]).and_then(json::Value::bool) == Some(false));
    computed
        .take(TRACES_PER_ROUND)
        .map(|job| {
            let id = job.num_at(&["job"]).unwrap_or(0.0) as u64;
            let exec_ms = job.num_at(&["result", "wall_clock_nanos"]).unwrap_or(0.0) / 1e6;
            let trace = client::get(addr, &format!("/v1/jobs/{id}/trace"))
                .ok()
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, body)| json::parse(&body).ok())
                .map(|document| layers::chrome_spans(&document));
            layers::server_job(exec_ms, trace.as_deref(), &job)
        })
        .collect()
}

/// Medians over the traced jobs of every round; all zero when no job was
/// computed in the window (no work, not a missing field).
fn job_layers(rounds: &[Round], checked: &[(&client::Exchange, check::Checked)]) -> Values {
    let mut per_job: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for values in rounds.iter().flat_map(|r| &r.jobs) {
        for (&name, &value) in values {
            per_job.entry(name).or_default().push(value);
        }
    }
    if checked.iter().all(|(_, c)| c.cached) {
        return layers::SERVER_JOB_METRICS
            .iter()
            .map(|&name| (name, 0.0))
            .collect();
    }
    per_job
        .into_iter()
        .filter_map(|(name, samples)| Some((name, median(&samples)?)))
        .collect()
}

impl Run {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.violations.is_empty()
    }

    /// The end-to-end metrics: `(name, value, unit)`.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let succeeded = self.tally.succeeded();
        let per_job = |total: f64| {
            if succeeded == 0 {
                0.0
            } else {
                total / succeeded as f64
            }
        };
        vec![
            ("setup_s", median(&self.setup_s).unwrap_or(0.0), "s"),
            (
                "latency_p50_ms",
                median(&self.latencies_ms).unwrap_or(0.0),
                "ms",
            ),
            (
                "latency_tail_ms",
                tail(&self.latencies_ms).map_or(0.0, |t| t.value),
                "ms",
            ),
            (
                "throughput_jobs_per_s",
                succeeded as f64 / self.window.as_secs_f64().max(1e-9),
                "1/s",
            ),
            ("cpu_ms_per_job", per_job(self.server_cpu_ms), "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ("success_rate", 1.0 - self.tally.error_rate(), "ratio"),
            ("colors_used_max", self.colors_used_max as f64, "count"),
        ]
    }

    fn print(&self, traced: bool) {
        let name = self.workload.name;
        println!(
            "== servebench {name} ({} mode)",
            if traced { "traced" } else { "end-to-end" }
        );
        let facts: Vec<String> = self.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("   run: {}", facts.join(" "));
        let [before, after] = self.calibration;
        let steal = calib::steal_pct(before.ticks, after.ticks)
            .map_or("unknown".to_string(), |s| format!("{s:.1}%"));
        println!(
            "   host drift (context, not gated): alu {:.1} -> {:.1} ms, dram chase {:.1} -> {:.1} ms, \
             hypervisor steal {steal} of CPU time",
            before.alu_ms, after.alu_ms, before.chase_ms, after.chase_ms
        );
        let setups: Vec<String> = self.setup_s.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "   window {:.3} s{}; set-ups [{}] s",
            self.window.as_secs_f64(),
            if self.exhausted {
                " (ended early: generated inputs used up)"
            } else {
                ""
            },
            setups.join(", ")
        );
        for (metric, value, unit) in self.end_to_end() {
            let note = match metric {
                "latency_tail_ms" => tail(&self.latencies_ms).map_or(String::new(), |t| {
                    format!(
                        "  (p{:.1} of {} samples, {} beyond)",
                        t.percentile, t.samples, t.beyond
                    )
                }),
                "success_rate" => format!(
                    "  (error_rate {:.4}: {} of {} failed)",
                    self.tally.error_rate(),
                    self.tally.failed,
                    self.tally.attempted
                ),
                _ => String::new(),
            };
            println!("   {metric:<24} {value:>12.3} {unit}{note}");
        }
        for (reason, count) in &self.tally.reasons {
            println!("   FAILED {count}x: {reason}");
        }
        for violation in &self.violations {
            println!("   VIOLATION: {violation}");
        }
        if traced {
            println!("   per-layer (metric, value, unit, should move):");
            for metric in PER_LAYER {
                match self.layers.get(metric.name) {
                    Some(value) => println!(
                        "   {:<32} {value:>14.3} {:<13} -> {}",
                        metric.name, metric.unit, metric.moves
                    ),
                    None => println!(
                        "   {:<32} {:>14} {:<13} -> {}",
                        metric.name, "absent", metric.unit, metric.moves
                    ),
                }
            }
        }
    }

    /// The last stdout line.
    fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<(&str, f64, &str)> = if traced {
            PER_LAYER
                .iter()
                .filter_map(|m| Some((m.name, *self.layers.get(m.name)?, m.unit)))
                .collect()
        } else {
            self.end_to_end()
        };
        let rendered: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            rendered.join(", ")
        )
    }
}
