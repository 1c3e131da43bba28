//! End-to-end benchmark of the continuum engines, driven only through
//! their public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload local-dag --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats one short workload until `--seconds` have passed,
//! running a fixed reference kernel between repetitions to measure how
//! fast the shared machine is at that moment. Each timing is the median
//! over repetitions of the repetition's time divided by that slowdown.
//! Every repetition's outputs are checked. With `--trace 1` it
//! alternates untraced and traced repetitions and reports the per-layer
//! ledger of the fastest traced one. The last line of standard output is
//! the result as one JSON object.
//! `perfbench/README.md` explains the workloads and the metrics.

mod alloc;
mod clock;
mod local;
mod reference;
mod sim;
mod spans;
mod stats;

use spans::SpanLog;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Largest share of a repetition's CPU time by which the span ledger
/// may fail to tile it.
pub const TILING_TOLERANCE: f64 = 0.10;

/// Fewest repetitions of each kind a run makes, however long they take.
const MIN_REPS: usize = 3;

/// What one repetition measured.
pub struct Rep {
    /// Seconds from the start of set-up to the first operation.
    pub setup_s: f64,
    pub wall_s: f64,
    /// Process CPU seconds over the same interval as `wall_s`.
    pub cpu_s: f64,
    /// Operations attempted: tasks, or stream elements.
    pub ops: u64,
    /// Operations lost, failed, or part of a run whose output was wrong.
    pub failed: u64,
    pub allocs: u64,
    /// Heap high-water mark above the live bytes before set-up.
    pub peak_bytes: u64,
    /// Latency p50 and p99 in µs, and the number of samples.
    pub latency: (f64, f64, usize),
    /// OS threads of the process at the end of the run.
    pub threads: usize,
    /// Per-layer metrics of a traced repetition.
    pub layers: Vec<(&'static str, f64)>,
    /// Whether the traced repetition's spans tiled its CPU time.
    pub tiling_ok: bool,
    /// The spans of a traced repetition.
    pub spans: Option<SpanLog>,
    /// The machine's slowdown around this repetition: the reference
    /// kernel's time before and after it, over its nominal time.
    pub slowdown: f64,
}

/// The end-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ops_per_cpu_s", "1/cpu-s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("allocs_per_op", "count"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics with their units. A traced run reports every
/// one; a layer its workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("local.submit_us_per_task", "us"),
    ("local.submit_share", "ratio"),
    ("local.allocs_per_submit", "count"),
    ("local.worker_cpu_us_per_task", "us"),
    ("local.worker_cpu_us_per_elem", "us"),
    ("local.drain_s", "s"),
    ("local.live_values_peak", "count"),
    ("local.inflight_high_water", "count"),
    ("local.heap_bytes_per_task", "bytes"),
    ("local.parked_peak", "count"),
    ("stream.send_parks_per_kelem", "count"),
    ("stream.recv_parks_per_kelem", "count"),
    ("stream.send_wait_share", "ratio"),
    ("stream.recv_wait_share", "ratio"),
    ("stream.stage_body_share", "ratio"),
    ("sched.calls", "count"),
    ("sched.busy_share", "ratio"),
    ("sched.us_per_call", "us"),
    ("sched.ready_per_call", "count"),
    ("sched.placed_per_ready", "ratio"),
    ("sched.allocs_per_call", "count"),
    ("source.calls", "count"),
    ("source.busy_share", "ratio"),
    ("source.us_per_call", "us"),
    ("source.submits", "count"),
    ("source.allocs_per_task", "count"),
    ("engine.self_share", "ratio"),
    ("engine.sink_share", "ratio"),
    ("engine.events_per_task", "count"),
    ("engine.heap_bytes_per_task", "bytes"),
    ("engine.peak_event_queue", "count"),
    ("engine.peak_materialized_tasks", "count"),
    ("engine.peak_live_values", "count"),
    ("engine.retired_tasks", "count"),
    ("workflows.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.tiling_error", "ratio"),
    ("ledger.traced_reps", "count"),
    ("env.available_parallelism", "count"),
    ("env.worker_threads", "count"),
    ("env.process_threads", "count"),
];

const WORKLOADS: [&str; 4] = [
    "local-dag",
    "local-stream",
    "sim-gwas-lazy",
    "sim-gwas-eager",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=3600"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

enum Workload {
    Dag(local::Dag),
    Stream(local::Stream),
    Gwas(sim::Gwas),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Self {
        match name {
            "local-dag" => Workload::Dag(local::Dag::new(seed, local::DAG_BLOCKS)),
            "local-stream" => Workload::Stream(local::Stream::new(seed, local::STREAM_ELEMENTS)),
            "sim-gwas-lazy" => Workload::Gwas(sim::Gwas::new(true, seed, sim::LAZY_CHUNKS, 1)),
            "sim-gwas-eager" => Workload::Gwas(sim::Gwas::new(
                false,
                seed,
                sim::EAGER_CHUNKS,
                sim::EAGER_CAMPAIGNS,
            )),
            _ => unreachable!("workload names are checked by parse_args"),
        }
    }

    fn rep(&mut self, traced: bool, between: &mut dyn FnMut()) -> Rep {
        match self {
            Workload::Dag(w) => w.rep(traced, between),
            Workload::Stream(w) => w.rep(traced, between),
            Workload::Gwas(w) => w.rep(traced, between),
        }
    }

    /// Whether latency is simulated time, which machine speed does not
    /// change.
    fn virtual_latency(&self) -> bool {
        matches!(self, Workload::Gwas(_))
    }

    /// Threads that stay busy while a repetition runs: the main thread
    /// plus the local engine's workers.
    fn busy_threads(&self) -> usize {
        1 + self.workers()
    }

    fn workers(&self) -> usize {
        match self {
            Workload::Dag(_) | Workload::Stream(_) => local::WORKERS,
            Workload::Gwas(_) => 0,
        }
    }
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut workload = Workload::new(&args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // The reference kernel runs between a repetition's set-up and its
    // timed region, so the set-up follows the previous repetition as it
    // would follow earlier work in a program, not the kernel. A
    // repetition's slowdown averages the kernel before it and the one
    // before the next repetition.
    let busy = workload.busy_threads();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut kernels = Vec::new();
    let (mut n_plain, mut n_traced) = (0, 0);
    loop {
        let trace_this = args.trace && n_plain > n_traced;
        let mut slowdown = 0.0;
        let rep = workload.rep(trace_this, &mut || slowdown = reference::slowdown(busy));
        kernels.push(slowdown);
        reps.push((trace_this, rep));
        if trace_this {
            n_traced += 1;
        } else {
            n_plain += 1;
        }
        let enough = n_plain >= MIN_REPS && (!args.trace || n_traced >= MIN_REPS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, (was_traced, mut rep)) in reps.into_iter().enumerate() {
        let after = kernels.get(i + 1).unwrap_or(&kernels[i]);
        rep.slowdown = (kernels[i] + after) / 2.0;
        if was_traced {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.ops).sum();
    let failed: u64 = all.clone().map(|r| r.failed).sum();
    let threads = all.clone().map(|r| r.threads).max().unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ops = plain[0].ops as f64;
    // Each timing is the median over repetitions of the repetition's
    // time divided by the machine's slowdown around it: seconds of a
    // machine running at the reference kernel's nominal speed.
    let normalized = |reps: &[Rep], f: fn(&Rep) -> f64| {
        stats::median(&reps.iter().map(|r| f(r) / r.slowdown).collect::<Vec<_>>())
    };
    let raw = |f: fn(&Rep) -> f64| stats::median(&plain.iter().map(f).collect::<Vec<_>>());
    let latency_scale = |f: fn(&Rep) -> f64| {
        if workload.virtual_latency() {
            raw(f)
        } else {
            normalized(&plain, f)
        }
    };
    let end_to_end = [
        normalized(&plain, |r| r.setup_s),
        ops / normalized(&plain, |r| r.wall_s),
        ops / normalized(&plain, |r| r.cpu_s),
        latency_scale(|r| r.latency.0),
        latency_scale(|r| r.latency.1),
        raw(|r| r.allocs as f64) / ops,
        raw(|r| r.peak_bytes as f64) / 1e6,
    ];
    let slowdowns: Vec<f64> = plain.iter().map(|r| r.slowdown).collect();

    let mut correct = failed == 0;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let best_traced = &traced[stats::best_of(&traced, |r| r.wall_s)];
        correct &= best_traced.tiling_ok;
        let overhead = normalized(&plain, |r| r.cpu_s) / normalized(&traced, |r| r.cpu_s);
        let extra = [
            ("trace.overhead_ratio", overhead),
            ("ledger.traced_reps", traced.len() as f64),
            ("env.available_parallelism", parallelism as f64),
            ("env.worker_threads", workload.workers() as f64),
            ("env.process_threads", threads as f64),
        ];
        let measured: Vec<(&str, f64)> = best_traced.layers.iter().copied().chain(extra).collect();
        if let Some(log) = &best_traced.spans {
            let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
            let path =
                std::path::Path::new(&dir).join(format!("perfbench-{}.spans.tsv", args.workload));
            match log.write_tsv(&path) {
                Ok(()) => println!("spans of the fastest traced repetition: {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = measured
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0.0, |m| m.1);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    println!(
        "perfbench {} seed={} repetitions={} traced={} available_parallelism={} \
         worker_threads={} process_threads={}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        parallelism,
        workload.workers(),
        threads
    );
    println!(
        "  machine slowdown (reference kernel / nominal): median {:.3}, min {:.3}, max {:.3}",
        stats::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "  raw medians: {:.1} ops/s, {:.1} ops/cpu-s, setup {:.6} s",
        ops / raw(|r| r.wall_s),
        ops / raw(|r| r.cpu_s),
        raw(|r| r.setup_s)
    );
    println!(
        "  latency samples per repetition: {} (p99 has {} beyond it)",
        plain[0].latency.2,
        plain[0].latency.2 / 100
    );
    for (name, unit, v) in &metrics {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
    println!(
        "  {:<32} {:>16.6} ratio ({failed} of {attempted} ops failed)",
        "error_rate",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
